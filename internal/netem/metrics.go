package netem

import (
	"strconv"

	"excovery/internal/obs"
)

// nodeMetrics caches a node's pre-resolved instruments. The zero value
// (all nil pointers) is the uninstrumented state: every method on a nil
// *obs.Counter / *obs.Gauge is a no-op, so the per-packet data path needs
// no guards and adds no allocations when no registry is attached —
// benchmarks and level-3 artifacts stay byte-identical.
type nodeMetrics struct {
	sent       *obs.Counter
	transmit   *obs.Counter
	delivered  *obs.Counter
	dupFlood   *obs.Counter
	dupRule    *obs.Counter
	queueDepth *obs.Gauge
	dropped    [dropReasonCount]*obs.Counter
}

// ruleMetrics caches one installed rule's instruments (resolved at
// InstallRule when the network is instrumented): the probabilistic
// manipulations a rule performs beyond dropping — reordering, corruption,
// rate-limiter stalls — counted per node and rule id.
type ruleMetrics struct {
	reordered  *obs.Counter
	corrupted  *obs.Counter
	rateStalls *obs.Counter
}

// Instrument attaches a metrics registry to the network: every existing
// and future node resolves per-node packet counters and a queue-depth
// gauge, and every future rule resolves per-rule manipulation counters.
// A nil registry is valid and leaves the data path uninstrumented.
func (nw *Network) Instrument(reg *obs.Registry) {
	nw.obs = reg
	if reg == nil {
		return
	}
	for _, id := range nw.order {
		nw.nodes[id].instrument(reg)
	}
}

func (n *Node) instrument(reg *obs.Registry) {
	id := string(n.id)
	n.m.sent = reg.Counter(obs.MNetemSent,
		"packets originated via Send", "node", id)
	n.m.transmit = reg.Counter(obs.MNetemTransmissions,
		"per-hop radio transmissions", "node", id)
	n.m.delivered = reg.Counter(obs.MNetemDelivered,
		"packets delivered to the node handler", "node", id)
	n.m.dupFlood = reg.Counter(obs.MNetemDuplicated,
		"duplicate packets (flood copies suppressed, rule-made copies)",
		"node", id, "kind", "flood")
	n.m.dupRule = reg.Counter(obs.MNetemDuplicated,
		"duplicate packets (flood copies suppressed, rule-made copies)",
		"node", id, "kind", "rule")
	n.m.queueDepth = reg.Gauge(obs.MNetemQueueDepth,
		"current egress queue depth", "node", id)
	for r := DropReason(0); r < dropReasonCount; r++ {
		n.m.dropped[r] = reg.Counter(obs.MNetemDropped,
			"packets discarded, by reason", "node", id, "reason", r.String())
	}
}

func (r *Rule) instrument(reg *obs.Registry, node NodeID) {
	id, rule := string(node), strconv.Itoa(r.id)
	r.m.reordered = reg.Counter(obs.MNetemReordered,
		"packets held back by a reorder rule", "node", id, "rule", rule)
	r.m.corrupted = reg.Counter(obs.MNetemCorrupted,
		"packets rewritten by a corruption rule", "node", id, "rule", rule)
	r.m.rateStalls = reg.Counter(obs.MNetemRateStalls,
		"packets stalled by a rate-limiting rule", "node", id, "rule", rule)
}

// drop records one discarded packet in the network-wide statistics and, on
// an instrumented network, the node's per-reason drop counter.
func (n *Node) drop(reason DropReason) {
	n.net.stats.Dropped[reason]++
	n.m.dropped[reason].Inc()
}
