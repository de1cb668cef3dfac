// Package topology wires brokers into the broker-network shapes the paper
// evaluates — unconnected (Figure 1), star (Figure 8) and linear (Figure 10)
// — plus ring, tree and full-mesh graphs for wider experiments.
// Builders return the edge list they created so tests and reports can assert
// and display the wiring.
package topology

import (
	"fmt"

	"narada/internal/broker"
)

// Edge records one established broker link (From dialed To).
type Edge struct {
	From string // logical address of the dialing broker
	To   string // logical address of the accepting broker
}

// Builder creates the links of a topology over an ordered broker list.
type Builder func(brokers []*broker.Broker) ([]Edge, error)

// Name constants for the paper's topologies.
const (
	Unconnected = "unconnected"
	Star        = "star"
	Linear      = "linear"
	Ring        = "ring"
	Mesh        = "mesh"
	Tree        = "tree"
)

// ByName returns the Builder for a named topology (tree has arity 2).
func ByName(name string) (Builder, error) {
	switch name {
	case Unconnected:
		return BuildUnconnected, nil
	case Star:
		return BuildStar, nil
	case Linear:
		return BuildLinear, nil
	case Ring:
		return BuildRing, nil
	case Mesh:
		return BuildMesh, nil
	case Tree:
		return func(bs []*broker.Broker) ([]Edge, error) { return BuildTree(bs, 2) }, nil
	default:
		return nil, fmt.Errorf("topology: unknown topology %q", name)
	}
}

func link(from, to *broker.Broker) (Edge, error) {
	if err := from.LinkTo(to.StreamAddr()); err != nil {
		return Edge{}, fmt.Errorf("topology: linking %s -> %s: %w",
			from.LogicalAddress(), to.LogicalAddress(), err)
	}
	return Edge{From: from.LogicalAddress(), To: to.LogicalAddress()}, nil
}

// BuildUnconnected establishes no links (paper Figure 1): brokers are
// reachable only through whatever registered them (the BDN's O(N) fan-out).
func BuildUnconnected([]*broker.Broker) ([]Edge, error) { return nil, nil }

// BuildStar links every broker to brokers[0], the hub (paper Figure 8).
func BuildStar(brokers []*broker.Broker) ([]Edge, error) {
	if len(brokers) < 2 {
		return nil, nil
	}
	edges := make([]Edge, 0, len(brokers)-1)
	for _, b := range brokers[1:] {
		e, err := link(b, brokers[0])
		if err != nil {
			return edges, err
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// BuildLinear chains the brokers in order (paper Figure 10): "All other
// brokers are connected to each other in a linear fashion."
func BuildLinear(brokers []*broker.Broker) ([]Edge, error) {
	edges := make([]Edge, 0, len(brokers))
	for i := 1; i < len(brokers); i++ {
		e, err := link(brokers[i], brokers[i-1])
		if err != nil {
			return edges, err
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// BuildRing is a linear chain closed back to the first broker.
func BuildRing(brokers []*broker.Broker) ([]Edge, error) {
	edges, err := BuildLinear(brokers)
	if err != nil {
		return edges, err
	}
	if len(brokers) > 2 {
		e, err := link(brokers[0], brokers[len(brokers)-1])
		if err != nil {
			return edges, err
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// BuildMesh fully connects every broker pair.
func BuildMesh(brokers []*broker.Broker) ([]Edge, error) {
	var edges []Edge
	for i := range brokers {
		for j := i + 1; j < len(brokers); j++ {
			e, err := link(brokers[j], brokers[i])
			if err != nil {
				return edges, err
			}
			edges = append(edges, e)
		}
	}
	return edges, nil
}

// BuildTree links brokers into a complete k-ary tree rooted at brokers[0].
func BuildTree(brokers []*broker.Broker, arity int) ([]Edge, error) {
	if arity < 1 {
		return nil, fmt.Errorf("topology: tree arity %d < 1", arity)
	}
	var edges []Edge
	for i := 1; i < len(brokers); i++ {
		parent := (i - 1) / arity
		e, err := link(brokers[i], brokers[parent])
		if err != nil {
			return edges, err
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// Diameter returns the hop-count diameter of the edge list over n nodes
// indexed by logical address; unreachable pairs yield -1.
func Diameter(n int, edges []Edge, indexOf func(logical string) int) int {
	adj := make([][]int, n)
	for _, e := range edges {
		a, b := indexOf(e.From), indexOf(e.To)
		if a < 0 || b < 0 {
			continue
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	diameter := 0
	for s := 0; s < n; s++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}
