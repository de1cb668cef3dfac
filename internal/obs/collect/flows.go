package collect

import (
	"sort"
	"time"

	"narada/internal/obs"
)

// NodeFlows is one node's last per-topic flow snapshot.
type NodeFlows struct {
	Node  string             `json:"node"`
	At    time.Time          `json:"at"` // node-local capture time
	Flows []obs.FlowSnapshot `json:"flows"`
}

// FlowsView is the /flows payload: each node's top-k table plus the
// fabric-wide merge.
type FlowsView struct {
	Nodes  []NodeFlows        `json:"nodes"`
	Fabric []obs.FlowSnapshot `json:"fabric"`
}

// Flows assembles the fabric flow view from every node's last snapshot. The
// fabric-wide listing merges per-node tables by topic — counts and error
// bounds add, since each node's sketch is an independent space-saving
// estimate of its own traffic — and sorts by published count descending, the
// <other> fold bucket last.
func (c *Collector) Flows() FlowsView {
	view := FlowsView{}
	for _, ns := range c.nodeStates() {
		if len(ns.flows) > 0 {
			view.Nodes = append(view.Nodes, NodeFlows{Node: ns.name, At: ns.at, Flows: ns.flows})
		}
	}
	merged := make(map[string]*obs.FlowSnapshot)
	for _, nf := range view.Nodes {
		for _, f := range nf.Flows {
			dst := merged[f.Topic]
			if dst == nil {
				cp := f
				merged[f.Topic] = &cp
				continue
			}
			dst.PubMsgs += f.PubMsgs
			dst.PubBytes += f.PubBytes
			dst.DelMsgs += f.DelMsgs
			dst.DelBytes += f.DelBytes
			dst.DropMsgs += f.DropMsgs
			dst.ErrBound += f.ErrBound
			dst.DropQueue += f.DropQueue
			dst.DropConn += f.DropConn
			dst.DropLarge += f.DropLarge
		}
	}
	view.Fabric = make([]obs.FlowSnapshot, 0, len(merged))
	for _, f := range merged {
		view.Fabric = append(view.Fabric, *f)
	}
	sort.Slice(view.Fabric, func(i, j int) bool {
		fi, fj := view.Fabric[i], view.Fabric[j]
		if (fi.Topic == obs.FlowOther) != (fj.Topic == obs.FlowOther) {
			return fj.Topic == obs.FlowOther
		}
		if fi.PubMsgs != fj.PubMsgs {
			return fi.PubMsgs > fj.PubMsgs
		}
		return fi.Topic < fj.Topic
	})
	return view
}
