package hw

import "fmt"

// This file generates explicit per-edge wirings on top of the
// TableNetwork machinery: a materializer that expands any network
// profile into its edge table (the form stage routing searches), and
// the 2D torus, a sparse fabric that exercises multi-hop stage
// routing because most chip pairs have no direct edge.

// NetworkEdges materializes the network's wiring over chips 0..n-1 as
// an explicit per-edge table: every directed edge the network defines
// between those chips, with its resolved class. For the uniform and
// clustered profiles that is the complete bipartite set (every ordered
// pair is wired); for a table profile it is the registered edges
// restricted to chips below n, and for a view the edges its base wires
// between the survivors, re-priced by its overrides. The result is a
// fresh map the caller may mutate; stage routing reads it to find
// multi-hop paths.
func NetworkEdges(net Network, n int) (map[Edge]LinkClass, error) {
	if n < 2 {
		return nil, fmt.Errorf("hw: cannot materialize a network over %d chips (need at least 2)", n)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	edges := make(map[Edge]LinkClass)
	switch net.Profile {
	case NetTable:
		table := lookupTable(net.TableDigest)
		for e, c := range table {
			if e.From < n && e.To < n {
				edges[e] = c
			}
		}
	case NetView:
		v := lookupView(net.TableDigest)
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if c, ok := v.link(from, to); ok {
					edges[Edge{From: from, To: to}] = c
				}
			}
		}
	default:
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				c, err := net.LinkFor(from, to)
				if err != nil {
					return nil, err
				}
				edges[Edge{From: from, To: to}] = c
			}
		}
	}
	if len(edges) == 0 {
		return nil, noEdgesBelow(net, n)
	}
	return edges, nil
}

// TorusNetwork wires dimX x dimY chips as a 2D torus: chip (x, y) is
// chip y*dimX+x, with bidirectional links to its +-x and +-y
// neighbours, wrapping at the edges. Dimensions of 1 contribute no
// edges on their axis (a 1 x N torus is a ring) and a dimension of 2
// collapses the wraparound onto the direct neighbour link. Non-
// neighbour pairs are unwired, so collective schedules that hop
// arbitrary pairs are rejected and pipeline handoffs route multi-hop.
func TorusNetwork(dimX, dimY int, c LinkClass) (Network, error) {
	if dimX < 1 || dimY < 1 || dimX*dimY < 2 {
		return Network{}, fmt.Errorf("hw: torus dimensions %dx%d need at least 2 chips", dimX, dimY)
	}
	edges := make(map[Edge]LinkClass)
	wire := func(a, b int) {
		if a == b {
			return
		}
		edges[Edge{From: a, To: b}] = c
		edges[Edge{From: b, To: a}] = c
	}
	for y := 0; y < dimY; y++ {
		for x := 0; x < dimX; x++ {
			chip := y*dimX + x
			wire(chip, y*dimX+(x+1)%dimX)
			wire(chip, ((y+1)%dimY)*dimX+x)
		}
	}
	return TableNetwork(edges)
}
