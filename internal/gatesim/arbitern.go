package gatesim

// ArbiterN is the asynchronous arbiter of Sec IV-C ([47]) for n requesters
// contending for one resource: one output of the 2x2 switch (n = 2: a latch
// and two threshold NOT gates), or one output path of a multiplicity-m
// switch, which 2m inputs can request. At most one grant is high at any
// time. A request that arrives while the resource is already held is *not*
// queued: it stays ungranted until it is dropped and re-asserted. This
// availability-check semantics (rather than queueing) is what makes the
// switch bufferless — a losing packet streams past ungranted and is gone;
// granting its remainder later would emit a truncated fragment. Gate cost is
// 2n (a latch tree plus threshold gates), matching the paper's observation
// that arbitration hardware grows with port count.
type ArbiterN struct {
	Grants []Node
}

type arbiterN struct {
	req    []bool
	stale  []bool
	owner  int
	grants []outputDriver
}

// NewArbiterN builds the arbiter; grant i is node name.G<i>. Ties at
// identical timestamps resolve to the lowest port index, standing in for
// the metastability filter.
func (c *Circuit) NewArbiterN(reqs []Node, name string) *ArbiterN {
	n := len(reqs)
	if n < 2 {
		panic("gatesim: ArbiterN needs >= 2 requesters")
	}
	a := &arbiterN{
		req:    make([]bool, n),
		stale:  make([]bool, n),
		owner:  -1,
		grants: make([]outputDriver, n),
	}
	out := &ArbiterN{Grants: make([]Node, n)}
	for i := range reqs {
		g := c.NewNode(name + ".G" + num(i))
		out.Grants[i] = g
		a.grants[i] = outputDriver{c: c, out: g, delay: c.gateDelayFor() * 2}
		c.attach(reqs[i], a, i)
		a.req[i] = c.nodes[reqs[i]].level
		c.nodes[g].driven = true
	}
	c.gateCount += 2 * n
	return out
}

func num(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func (a *arbiterN) inputChanged(c *Circuit, port int, level bool) {
	a.req[port] = level
	if !level {
		a.stale[port] = false
	} else if a.owner != -1 && a.owner != port {
		a.stale[port] = true
	}
	if a.owner == port && !level {
		a.grants[port].drive(false)
		a.owner = -1
	}
	if a.owner == -1 {
		for i, r := range a.req {
			if r && !a.stale[i] {
				a.owner = i
				a.grants[i].drive(true)
				break
			}
		}
	}
}
