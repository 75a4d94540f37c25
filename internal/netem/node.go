package netem

import (
	"math/rand"
	"time"

	"excovery/internal/vclock"
)

// Handler receives packets addressed to a node. It runs inline on the
// delivery path, so it must not block on scheduler primitives (Sleep,
// Cond.Wait, Queue.Pop) — use ScheduleFunc or a task for deferred work —
// and it must not retain p or p.Path beyond the call: the packet returns
// to the network's pool when the handler returns. Payload may be
// retained; payload buffers are never pooled.
type Handler func(p *Packet)

// Node is one emulated network node.
type Node struct {
	id     NodeID
	net    *Network
	params NodeParams
	clock  vclock.Clock
	rng    *rand.Rand

	handler Handler

	// ring/head form the egress FIFO of queued radio transmissions; cur
	// and curTx hold the transmission currently being serialized. pumping
	// is true from the moment a transmission is queued on an idle radio
	// until the ring drains — the event-driven replacement of the old
	// per-node pump daemon task.
	ring    []transmission
	head    int
	cur     transmission
	curTx   time.Duration
	pumping bool
	// busyUntil is the CSMA medium reservation on this node (written by
	// the node itself and its neighbors).
	busyUntil time.Time

	up      bool
	rxDown  bool
	txDown  bool
	killed  bool      // process killed: node mute and out of routing
	paused  bool      // process paused: rx buffers, nothing processed
	pausedQ []*Packet // packets buffered while paused (kernel socket buffer)
	stress  float64   // CPU stress factor; scales serialization time
	tag     uint16
	tagging bool

	capturing bool
	captures  []Capture

	rules []*Rule
	seen  map[uint64]bool // flood duplicate suppression
	// member is the node's multicast-membership snapshot, maintained by
	// Join/Leave so the flood delivery check is one lookup on node-local
	// state.
	member map[string]bool
	// edges is the node's outgoing-link snapshot (sorted by target id),
	// rebuilt by Network.ensureEdges on topology mutation.
	edges []edge

	// m holds the node's pre-resolved instruments (metrics.go); the zero
	// value keeps the data path uninstrumented and allocation-free.
	m nodeMetrics
}

// transmission is one queued radio transmission. The transmission owns its
// packet: duplication rules enqueue an independent clone, never a shared
// pointer, so recycling one copy cannot alias the other.
type transmission struct {
	pkt *Packet
	// nextHop is the unicast relay target; zero for flood transmissions.
	nextHop NodeID
	// extraDelay accumulates rule-injected delay to apply before
	// propagation.
	extraDelay time.Duration
}

// ID returns the node identifier.
func (n *Node) ID() NodeID { return n.id }

// Net returns the network the node belongs to.
func (n *Node) Net() *Network { return n.net }

// Clock returns the node's local clock.
func (n *Node) Clock() vclock.Clock { return n.clock }

// SetClock replaces the node's local clock (used by experiments that model
// clock deviation).
func (n *Node) SetClock(c vclock.Clock) {
	if c == nil {
		c = vclock.Perfect{S: n.net.s}
	}
	n.clock = c
}

// SetHandler installs the packet receive handler.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// SetTagging enables the packet tagger of §VI-A: each transmitted packet
// gets a 16-bit identifier, incremented per packet, wrapping at 65535.
func (n *Node) SetTagging(on bool) { n.tagging = on }

// SetCapture enables or disables packet capture on this node.
func (n *Node) SetCapture(on bool) { n.capturing = on }

// Captures returns the packets captured so far.
func (n *Node) Captures() []Capture { return n.captures }

// ClearCaptures drops captured packets (between runs).
func (n *Node) ClearCaptures() { n.captures = nil }

// queueLen returns the egress ring occupancy.
func (n *Node) queueLen() int { return len(n.ring) - n.head }

func (n *Node) pushRing(x transmission) {
	n.ring = append(n.ring, x)
}

func (n *Node) popRing() transmission {
	x := n.ring[n.head]
	n.ring[n.head] = transmission{}
	n.head++
	if n.head == len(n.ring) {
		n.ring = n.ring[:0]
		n.head = 0
	}
	return x
}

// drainRing discards all queued transmissions, recycling their packets.
func (n *Node) drainRing() {
	for n.queueLen() > 0 {
		x := n.popRing()
		n.net.freePacket(x.pkt)
	}
	n.m.queueDepth.Set(0)
}

// drainPausedQ discards the paused-process receive buffer.
func (n *Node) drainPausedQ() {
	for _, p := range n.pausedQ {
		n.net.freePacket(p)
	}
	n.pausedQ = nil
}

// ResetRunState clears per-run transient state: flood duplicate suppression
// and queued packets are discarded, reproducing the preparation-phase
// requirement that "network packets generated in previous runs must be
// dropped on all participants" (§IV-C1).
func (n *Node) ResetRunState() {
	n.seen = make(map[uint64]bool)
	n.drainRing()
	n.drainPausedQ()
	n.paused = false
	n.stress = 0
	n.SetKilled(false)
}

// InterfaceUp reports whether the interface is administratively up.
func (n *Node) InterfaceUp() bool { return n.up }

// SetInterface activates or deactivates the node's network interface
// (§IV-A2). A down interface neither sends, receives nor forwards, and the
// node disappears from routing until reactivated.
func (n *Node) SetInterface(up bool) {
	if n.up == up {
		return
	}
	n.up = up
	n.net.routesDirty = true
}

// SetInterfaceDir blocks only one direction, implementing the directional
// interface fault of §IV-D1 without removing the node from routing.
func (n *Node) SetInterfaceDir(rxBlocked, txBlocked bool) {
	n.rxDown = rxBlocked
	n.txDown = txBlocked
}

// operational reports whether the node participates in the network: its
// interface is up and its process has not been killed.
func (n *Node) operational() bool { return n.up && !n.killed }

// Killed reports whether the node's process is killed.
func (n *Node) Killed() bool { return n.killed }

// SetKilled kills or restarts the node's process (pumba-style container
// kill). A killed node neither sends, receives nor forwards; its queued
// transmissions and buffered packets are lost and it disappears from
// routing until restarted.
func (n *Node) SetKilled(on bool) {
	if n.killed == on {
		return
	}
	n.killed = on
	if on {
		n.drainRing()
		n.drainPausedQ()
	}
	n.net.routesDirty = true
}

// Paused reports whether the node's process is paused.
func (n *Node) Paused() bool { return n.paused }

// SetPaused freezes or resumes the node's process (pumba-style SIGSTOP).
// While paused the NIC still receives — packets are captured and buffered
// up to the queue limit, like a kernel socket buffer under a stopped
// process — but nothing is processed or sent. Resuming drains the buffer
// in arrival order.
func (n *Node) SetPaused(on bool) {
	if n.paused == on {
		return
	}
	n.paused = on
	if on || len(n.pausedQ) == 0 {
		return
	}
	q := n.pausedQ
	n.pausedQ = nil
	for _, p := range q {
		p.rcv = n
		n.net.s.ScheduleEvent(0, processEvent, p)
	}
}

// Stress returns the node's CPU stress factor.
func (n *Node) Stress() float64 { return n.stress }

// SetStress sets a CPU stress factor f ≥ 0 (pumba-style stress-ng): packet
// serialization takes (1+f)× as long, modelling a loaded host competing
// with the network stack. Zero removes the stress.
func (n *Node) SetStress(f float64) {
	if f < 0 {
		f = 0
	}
	n.stress = f
}

func (n *Node) capture(p *Packet, dir CaptureDir) {
	if !n.capturing {
		return
	}
	c := Capture{
		Time: n.clock.Now(),
		Dir:  dir,
		Node: n.id,
		Pkt:  *p,
	}
	// The live packet is pooled; the capture needs its own Path copy.
	c.Pkt.Path = append([]NodeID(nil), p.Path...)
	c.Pkt.rcv = nil
	n.captures = append(n.captures, c)
}

// Send originates a packet from this node. For unicast destinations it is
// routed hop by hop; multicast and broadcast flood the mesh. It returns the
// assigned packet ID; ok is false if the packet was dropped locally (down
// interface, full queue, tx rule, or no route).
func (n *Node) Send(dst Dest, proto string, payload []byte) (id uint64, ok bool) {
	nw := n.net
	nw.stats.Sent++
	n.m.sent.Inc()
	nw.pktSeq++
	p := nw.newPacket()
	p.ID = nw.pktSeq
	p.Src = n.id
	p.Dst = dst
	p.Proto = proto
	p.Payload = payload
	p.TTL = nw.DefaultTTL
	p.Path = append(p.Path, n.id)
	p.SentAt = nw.s.Now()
	if n.tagging {
		n.tag++
		p.Tag = n.tag
	}
	// Originating node has seen its own flood packet. Unicast IDs never
	// consult the map, so the steady-state unicast path stays free of map
	// growth.
	if !dst.IsUnicast() {
		n.seen[p.ID] = true
	}
	id = p.ID
	return id, n.enqueue(p)
}

// enqueue pushes a packet into the egress ring, applying tx admission
// (interface state, rules, tail drop). It is used for both originated and
// forwarded packets and takes ownership of p: on admission the ring owns
// it, on any refusal it is recycled.
func (n *Node) enqueue(p *Packet) bool {
	nw := n.net
	if !n.up || n.txDown {
		n.drop(DropIfDown)
		nw.freePacket(p)
		return false
	}
	if n.killed || n.paused {
		// A killed or frozen process cannot send; attempts by its still-
		// scheduled tasks are discarded.
		n.drop(DropProc)
		nw.freePacket(p)
		return false
	}
	v := n.evalRules(p, CaptureTx)
	if v.drop {
		n.drop(DropRule)
		nw.freePacket(p)
		return false
	}
	x := transmission{pkt: p, extraDelay: v.delay}
	if p.Dst.IsUnicast() && p.Dst.Node != n.id {
		hop, ok := nw.NextHop(n.id, p.Dst.Node)
		if !ok {
			n.drop(DropNoRoute)
			nw.freePacket(p)
			return false
		}
		x.nextHop = hop
	}
	if n.queueLen() >= n.params.QueueLen {
		n.drop(DropQueue)
		nw.freePacket(p)
		return false
	}
	n.pushRing(x)
	if v.dup && n.queueLen() < n.params.QueueLen {
		// Duplicate rule: queue a second copy of the transmission, as an
		// independent clone (pool ownership). The copy bypasses rule
		// evaluation so a duplication probability of 1 cannot cascade.
		nw.stats.RuleDuplicates++
		n.m.dupRule.Inc()
		n.pushRing(transmission{pkt: p.cloneInto(nw.newPacket()), nextHop: x.nextHop, extraDelay: v.delay})
	}
	n.m.queueDepth.Set(int64(n.queueLen()))
	if !n.pumping {
		// Idle radio: start the pump at the current instant, in the same
		// runnable-FIFO position the old pump daemon's wakeup took.
		n.pumping = true
		nw.s.PostEvent(pumpNextEvent, n)
	}
	return true
}

// The pump serializes transmissions at the node's radio rate. It is a
// per-node event chain rather than a daemon task: pumpNext pops the next
// transmission and either defers on a busy medium (pumpRetryEvent) or
// reserves the channel and schedules the end of serialization
// (pumpTxDoneEvent), which transmits and continues with the next queued
// transmission.

func pumpNextEvent(now time.Time, arg any) {
	arg.(*Node).pumpNext(now)
}

func pumpRetryEvent(now time.Time, arg any) {
	arg.(*Node).contendOrTransmit(now)
}

func pumpTxDoneEvent(now time.Time, arg any) {
	n := arg.(*Node)
	x := n.cur
	n.cur = transmission{}
	if !n.up || n.txDown || n.killed {
		n.drop(DropIfDown)
		n.net.freePacket(x.pkt)
	} else {
		n.transmit(x, now)
	}
	if n.queueLen() > 0 {
		n.pumpNext(now)
		return
	}
	n.pumping = false
}

func (n *Node) pumpNext(now time.Time) {
	if n.queueLen() == 0 {
		// The ring was drained (reset, kill) between the pump activation
		// and this event.
		n.pumping = false
		return
	}
	if n.net.edgesDirty {
		n.net.ensureEdges()
	}
	x := n.popRing()
	n.m.queueDepth.Set(int64(n.queueLen()))
	// Serialization: the radio occupies the medium for size*8/rate.
	// Rule-injected delay does NOT occupy the medium; it is applied
	// per propagation below, like a real qdisc netem delay.
	txTime := time.Duration(float64(x.pkt.WireSize()*8) / float64(n.params.RateBps) * float64(time.Second))
	if n.stress > 0 {
		txTime = time.Duration(float64(txTime) * (1 + n.stress))
	}
	n.cur = x
	n.curTx = txTime
	n.contendOrTransmit(now)
}

func (n *Node) contendOrTransmit(now time.Time) {
	if n.net.Contention {
		// CSMA-style deferral: wait while any neighbor occupies the
		// channel, with a small random backoff against lockstep.
		if n.busyUntil.After(now) {
			wait := n.busyUntil.Sub(now) + time.Duration(n.rng.Int63n(int64(50*time.Microsecond)))
			n.net.s.ScheduleEvent(wait, pumpRetryEvent, n)
			return
		}
		// Reserve the channel at the sender and all its neighbors.
		until := now.Add(n.curTx)
		if until.After(n.busyUntil) {
			n.busyUntil = until
		}
		for _, e := range n.edges {
			if until.After(e.n.busyUntil) {
				e.n.busyUntil = until
			}
		}
	}
	n.net.s.ScheduleEvent(n.curTx, pumpTxDoneEvent, n)
}

// transmit propagates one radio transmission to its neighbor(s) and
// recycles the transmission's packet.
func (n *Node) transmit(x transmission, now time.Time) {
	nw := n.net
	nw.stats.Transmissions++
	n.m.transmit.Inc()
	n.capture(x.pkt, CaptureTx)
	if x.pkt.Dst.IsUnicast() {
		if x.pkt.Dst.Node == n.id {
			// Loopback delivery.
			q := x.pkt.cloneInto(nw.newPacket())
			nw.freePacket(x.pkt)
			n.receive(q, now)
			return
		}
		n.propagate(x.pkt, x.nextHop, x.extraDelay, now)
		nw.freePacket(x.pkt)
		return
	}
	// Flood: one transmission reaches every neighbor, each with an
	// independent loss draw. The precomputed edge snapshot replaces the
	// per-transmission neighbor lookup.
	for _, e := range n.edges {
		n.propagateLink(x.pkt, e.n, e.lp, x.extraDelay, now)
	}
	nw.freePacket(x.pkt)
}

// propagate models the unicast hop from n to neighbor nb.
func (n *Node) propagate(p *Packet, nb NodeID, extra time.Duration, now time.Time) {
	lp := n.net.links[n.id][nb]
	if lp == nil {
		n.drop(DropNoRoute)
		return
	}
	n.propagateLink(p, n.net.nodes[nb], lp, extra, now)
}

// propagateLink models the link from n to target: loss, delay, jitter,
// plus any rule-injected extra delay. The delivery is an independently
// owned clone of p, scheduled as an inline event.
func (n *Node) propagateLink(p *Packet, target *Node, lp *LinkParams, extra time.Duration, now time.Time) {
	if lp.Burst != nil {
		b := lp.Burst
		if lp.burstBad {
			if n.rng.Float64() < b.PBadToGood {
				lp.burstBad = false
			}
		} else {
			if n.rng.Float64() < b.PGoodToBad {
				lp.burstBad = true
			}
		}
		loss := b.LossGood
		if lp.burstBad {
			loss = b.LossBad
		}
		if loss > 0 && n.rng.Float64() < loss {
			n.drop(DropLoss)
			return
		}
	} else if lp.Loss > 0 && n.rng.Float64() < lp.Loss {
		n.drop(DropLoss)
		return
	}
	delay := lp.Delay + extra
	if lp.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(lp.Jitter)))
	}
	q := p.cloneInto(n.net.newPacket())
	q.rcv = target
	n.net.s.ScheduleEvent(delay, receiveEvent, q)
}

// receiveEvent is the arrival of one packet at its target node; the target
// rides in the packet's in-flight rcv field so the event needs no closure.
func receiveEvent(now time.Time, arg any) {
	q := arg.(*Packet)
	t := q.rcv
	q.rcv = nil
	t.receive(q, now)
}

// processEvent re-enters process for a packet buffered during a process
// pause.
func processEvent(now time.Time, arg any) {
	p := arg.(*Packet)
	t := p.rcv
	p.rcv = nil
	t.process(p, now)
}

// processResumeEvent continues process after a rule-injected rx delay.
func processResumeEvent(now time.Time, arg any) {
	p := arg.(*Packet)
	t := p.rcv
	dup := p.rxDup
	p.rcv, p.rxDup = nil, false
	t.processAfterDelay(p, dup, now)
}

// receive admits an arriving packet: capture happens at the NIC, then the
// packet is either buffered (paused process) or processed. receive owns p.
func (n *Node) receive(p *Packet, now time.Time) {
	if !n.up || n.rxDown || n.killed {
		n.drop(DropIfDown)
		n.net.freePacket(p)
		return
	}
	p.Path = append(p.Path, n.id)
	n.capture(p, CaptureRx)
	if n.paused {
		if len(n.pausedQ) >= n.params.QueueLen {
			n.drop(DropProc)
			n.net.freePacket(p)
			return
		}
		n.pausedQ = append(n.pausedQ, p)
		return
	}
	n.process(p, now)
}

// process runs rx rules on an admitted packet; a rule-injected delay
// parks the packet on a continuation event instead of blocking (the old
// task-based path slept here). Packets buffered during a process pause
// resume here when the node is unpaused.
func (n *Node) process(p *Packet, now time.Time) {
	v := n.evalRules(p, CaptureRx)
	if v.drop {
		n.drop(DropRule)
		n.net.freePacket(p)
		return
	}
	if v.delay > 0 {
		p.rcv = n
		p.rxDup = v.dup
		n.net.s.ScheduleEvent(v.delay, processResumeEvent, p)
		return
	}
	n.processAfterDelay(p, v.dup, now)
}

// processAfterDelay performs duplicate suppression, local delivery and
// forwarding/reflooding.
func (n *Node) processAfterDelay(p *Packet, dup bool, now time.Time) {
	nw := n.net
	if p.Dst.IsUnicast() {
		if p.Dst.Node == n.id {
			n.deliver(p)
			if dup {
				nw.stats.RuleDuplicates++
				n.m.dupRule.Inc()
				c := p.cloneInto(nw.newPacket())
				n.deliver(c)
				nw.freePacket(c)
			}
			nw.freePacket(p)
			return
		}
		// Relay. The duplicate clone is taken before enqueue consumes p.
		if dup {
			c := p.cloneInto(nw.newPacket())
			n.enqueue(p)
			nw.stats.RuleDuplicates++
			n.m.dupRule.Inc()
			n.enqueue(c)
			return
		}
		n.enqueue(p)
		return
	}

	// Flood handling with duplicate suppression. An rx duplicate of a
	// flood packet delivers twice but refloods once: the copy would be
	// suppressed by every receiver's seen map anyway.
	if n.seen[p.ID] {
		nw.stats.Duplicates++
		n.m.dupFlood.Inc()
		nw.freePacket(p)
		return
	}
	n.seen[p.ID] = true
	if p.Dst.Broadcast || n.member[p.Dst.Group] {
		n.deliver(p)
		if dup {
			nw.stats.RuleDuplicates++
			n.m.dupRule.Inc()
			c := p.cloneInto(nw.newPacket())
			n.deliver(c)
			nw.freePacket(c)
		}
	}
	p.TTL--
	if p.TTL <= 0 {
		n.drop(DropTTL)
		n.net.freePacket(p)
		return
	}
	n.enqueue(p)
}

// deliver hands p to the node handler; the caller retains ownership (the
// handler must not keep the packet, see Handler).
func (n *Node) deliver(p *Packet) {
	n.net.stats.Delivered++
	n.m.delivered.Inc()
	if n.handler != nil {
		n.handler(p)
	}
}
