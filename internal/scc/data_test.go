package scc

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestCondensationDataRoundTrip: Data -> CondensationFromData preserves
// the decomposition exactly, across random graphs.
func TestCondensationDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(50)
		a := randomAdj(rng, n, []float64{0.5, 1, 2, 4}[rng.Intn(4)])
		c := Condense(a, nil)
		c2, err := CondensationFromData(c.Data())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("trial %d: round trip changed the condensation", trial)
		}
	}
}

// TestCondensationFromDataRejects: each persisted-state invariant the
// query path relies on is actually enforced.
func TestCondensationFromDataRejects(t *testing.T) {
	// 0<->1 -> 2, plus isolated 3: components {0,1}, {2}, {3} with
	// comp({0,1}) > comp(2) by reverse-topo numbering.
	base := func() CondensationData {
		a := buildAdj(4, [][2]int32{{0, 1}, {1, 0}, {1, 2}})
		return Condense(a, nil).Data()
	}
	cases := []struct {
		name string
		mut  func(*CondensationData)
	}{
		{"offsets decrease", func(d *CondensationData) { d.FOff[1] = d.FOff[len(d.FOff)-1] + 1 }},
		{"edge out of range", func(d *CondensationData) { d.FEdges[0] = int32(len(d.FOff)) }},
		{"component past the count", func(d *CondensationData) { d.Comp[0] = int32(len(d.FOff) - 1) }},
		{"negative component", func(d *CondensationData) { d.Comp[3] = -1 }},
		{"forward edge breaks topo order", func(d *CondensationData) {
			// Point the one cross-component edge upward instead of down.
			d.FEdges[0] = int32(len(d.FOff) - 2)
		}},
		{"transpose mismatch", func(d *CondensationData) {
			// Drop a reverse edge but keep offsets consistent: degree
			// counts no longer mirror the forward half.
			for i := 1; i < len(d.ROff); i++ {
				d.ROff[i]--
			}
			d.REdges = d.REdges[1:]
		}},
		{"offset arrays disagree", func(d *CondensationData) { d.ROff = d.ROff[:len(d.ROff)-1] }},
	}
	for _, c := range cases {
		d := base()
		// Deep-copy every slice so mutations stay independent per case.
		d.Comp = append([]int32{}, d.Comp...)
		d.FOff = append([]int32{}, d.FOff...)
		d.FEdges = append([]int32{}, d.FEdges...)
		d.ROff = append([]int32{}, d.ROff...)
		d.REdges = append([]int32{}, d.REdges...)
		c.mut(&d)
		if _, err := CondensationFromData(d); err == nil {
			t.Errorf("%s: accepted invalid data", c.name)
		}
	}
}
