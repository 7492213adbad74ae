package exp

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseCampaign feeds arbitrary bytes to the campaign spec decoder, then
// applies the defaults, compiles every fault script and validates the
// workload spec, if any, as RunCampaign's cells would. Any input must come
// back as a value or an error, never a panic or a hang. The corpus is seeded
// with the committed example campaigns.
func FuzzParseCampaign(f *testing.F) {
	paths, err := filepath.Glob("../../examples/campaigns/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example campaigns (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseCampaign(data)
		if err != nil {
			return
		}
		spec = spec.withDefaults()
		if len(spec.Seeds) == 0 || len(spec.Grid.Nets) == 0 || len(spec.Grid.Shards) == 0 {
			t.Fatalf("defaults left an empty axis: %+v", spec)
		}
		// Cells compile their script per seed; compile errors depend only
		// on the script's structure, so the first seed stands for all.
		for _, s := range spec.Scripts {
			s.Compile(spec.Seeds[0])
		}
		if spec.Workload != nil {
			spec.Workload.Validate()
		}
	})
}
