package sim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestHeapHasNoWriteBarriers compiles this package with the compiler's
// write-barrier report (-d=wb) and fails if a barrier falls inside the
// heap's push, pop or siftDown. Their slots hold no pointers, so a barrier
// there means a pointer store crept back into the sift loops, which run
// once per heap level per event: with 24-byte {key, event} heap entries,
// the sift moves took 81% of a Fig 6 cell's write barriers. The functions'
// line ranges come from parsing engine.go, so edits elsewhere in the file
// do not move them.
func TestHeapHasNoWriteBarriers(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH to compile the package with -d=wb")
	}
	guarded := map[string][2]int{"push": {}, "pop": {}, "siftDown": {}}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "engine.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil {
			continue
		}
		if _, want := guarded[fd.Name.Name]; !want {
			continue
		}
		guarded[fd.Name.Name] = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
	}
	for name, lines := range guarded {
		if lines[0] == 0 {
			t.Errorf("engine.go has no method %s to check", name)
		}
	}

	out, err := exec.Command(goCmd, "build", "-gcflags=baldur/internal/sim=-d=wb", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-d=wb: %v\n%s", err, out)
	}
	barrier := regexp.MustCompile(`(?m)^(\S+\.go):(\d+):\d+: write barrier$`)
	outside := 0
	for _, m := range barrier.FindAllStringSubmatch(string(out), -1) {
		if filepath.Base(m[1]) != "engine.go" {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		in := ""
		for name, lines := range guarded {
			if lines[0] <= line && line <= lines[1] {
				in = name
			}
		}
		if in == "" {
			outside++
			continue
		}
		t.Errorf("write barrier at engine.go:%d, inside %s", line, in)
	}
	// store and take write an event into the table, so a report without
	// any barrier in engine.go means the flag printed nothing to check.
	if outside == 0 {
		t.Errorf("-d=wb reported no barrier anywhere in engine.go; output:\n%s", out)
	}
}
