package netem

import (
	"fmt"
	"testing"
	"time"

	"excovery/internal/sched"
)

// TestDupCascadePooledAliasing is the pooled-packet aliasing regression
// around the DupProb re-enqueue: a relay with certain duplication queues an
// independent clone; if original and copy shared a recycled buffer, paths
// or payloads would cross between packets.
func TestDupCascadePooledAliasing(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 3)
	BuildChain(nw, "n", 3, NodeParams{}, LinkParams{Delay: time.Millisecond})
	relay := nw.Node("n1")
	relay.InstallRule(Rule{Dir: DirTx, DupProb: 1})
	const N = 40
	type rx struct {
		payload string
		path    string
	}
	var got []rx
	nw.Node("n2").SetHandler(func(p *Packet) {
		got = append(got, rx{payload: string(p.Payload), path: fmt.Sprint(p.Path)})
	})
	s.Go("send", func() {
		for i := 0; i < N; i++ {
			nw.Node("n0").Send(Unicast("n2"), "t", []byte(fmt.Sprintf("payload-%02d", i)))
			s.Sleep(2 * time.Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Every packet is relayed twice by n1 (original + rule duplicate); the
	// duplicate bypasses rule evaluation, so exactly 2N deliveries.
	if len(got) != 2*N {
		t.Fatalf("deliveries = %d, want %d", len(got), 2*N)
	}
	count := map[string]int{}
	for _, r := range got {
		if r.path != "[n0 n1 n2]" {
			t.Fatalf("corrupted path %s for %q (pool aliasing)", r.path, r.payload)
		}
		count[r.payload]++
	}
	for i := 0; i < N; i++ {
		key := fmt.Sprintf("payload-%02d", i)
		if count[key] != 2 {
			t.Fatalf("payload %q delivered %d times, want 2", key, count[key])
		}
	}
	if st := nw.Stats(); st.RuleDuplicates != N {
		t.Fatalf("RuleDuplicates = %d, want %d", st.RuleDuplicates, N)
	}
}

// TestRemoveLinkInvalidatesSnapshotNextDelivery checks the fan-out
// snapshot invalidation satellite: after RemoveLink the very next delivery
// must take the surviving path.
func TestRemoveLinkInvalidatesSnapshotNextDelivery(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		nw.AddNode(id, NodeParams{})
	}
	// Diamond: a-b-c (short) and a-d-c (alternative).
	nw.AddLink("a", "b", LinkParams{Delay: time.Millisecond})
	nw.AddLink("b", "c", LinkParams{Delay: time.Millisecond})
	nw.AddLink("a", "d", LinkParams{Delay: time.Millisecond})
	nw.AddLink("d", "c", LinkParams{Delay: time.Millisecond})
	var paths []string
	nw.Node("c").SetHandler(func(p *Packet) { paths = append(paths, fmt.Sprint(p.Path)) })
	s.Go("t", func() {
		nw.Node("a").Send(Unicast("c"), "t", nil)
		s.Sleep(20 * time.Millisecond)
		nw.RemoveLink("a", "b")
		// Very next delivery after the cut must route around it.
		nw.Node("a").Send(Unicast("c"), "t", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("deliveries = %d, want 2 (%v)", len(paths), paths)
	}
	if paths[0] != "[a b c]" && paths[0] != "[a d c]" {
		t.Fatalf("first path = %s", paths[0])
	}
	if paths[1] != "[a d c]" {
		t.Fatalf("path after RemoveLink = %s, want [a d c]", paths[1])
	}
}

// TestLeaveInvalidatesMembershipNextFlood checks the membership snapshot:
// after Leave the very next flood must no longer deliver to the node.
func TestLeaveInvalidatesMembershipNextFlood(t *testing.T) {
	s := sched.NewVirtual()
	nw := New(s, 1)
	BuildChain(nw, "n", 3, NodeParams{}, LinkParams{Delay: time.Millisecond})
	nw.Join("svc", "n2")
	recv := 0
	nw.Node("n2").SetHandler(func(p *Packet) { recv++ })
	s.Go("t", func() {
		nw.Node("n0").Send(Multicast("svc"), "sd", nil)
		s.Sleep(20 * time.Millisecond)
		nw.Leave("svc", "n2")
		nw.Node("n0").Send(Multicast("svc"), "sd", nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != 1 {
		t.Fatalf("deliveries = %d, want 1 (second flood after Leave must not deliver)", recv)
	}
}
