package graph

import "testing"

// chain builds 0 -> 1 -> 2 -> ... -> n-1.
func chain(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	return b.Build()
}

func TestPartitionersAssignEveryVertexOnce(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Graph, int) (*Partitioning, error)
	}{
		{"hash", HashPartition},
		{"range", RangePartition},
	}
	sizes := []int{0, 1, 2, 7, 100}
	ks := []int{1, 2, 3, 8}
	for _, c := range cases {
		for _, n := range sizes {
			for _, k := range ks {
				g := chain(n)
				pt, err := c.fn(g, k)
				if err != nil {
					t.Fatalf("%s(n=%d,k=%d): %v", c.name, n, k, err)
				}
				if len(pt.Part) != n {
					t.Fatalf("%s(n=%d,k=%d): %d labels", c.name, n, k, len(pt.Part))
				}
				for v, p := range pt.Part {
					if p < 0 || int(p) >= k {
						t.Errorf("%s(n=%d,k=%d): vertex %d in partition %d", c.name, n, k, v, p)
					}
				}
			}
		}
	}
}

func TestPartitionRejectsBadK(t *testing.T) {
	for _, k := range []int{0, -1} {
		if _, err := HashPartition(chain(4), k); err == nil {
			t.Errorf("HashPartition(k=%d): want error", k)
		}
	}
}

func TestRangePartitionContiguous(t *testing.T) {
	pt, err := RangePartition(chain(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 10; v++ {
		if pt.Part[v] < pt.Part[v-1] {
			t.Fatalf("range partition not monotone at vertex %d: %v", v, pt.Part)
		}
	}
}

func TestHashPartitionDeterministic(t *testing.T) {
	g := chain(50)
	a, _ := HashPartition(g, 4)
	b, _ := HashPartition(g, 4)
	for v := range a.Part {
		if a.Part[v] != b.Part[v] {
			t.Fatalf("hash partition not deterministic at vertex %d", v)
		}
	}
}
