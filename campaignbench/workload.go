package main

import (
	"excovery/internal/desc"
	"excovery/internal/netem"
)

// workload is one benchmark input: a description family, its campaign size
// and the deployment it runs on. Why each was chosen is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	// runs is the campaign size: at least 100, so that ten or more run
	// samples lie beyond the 90th percentile of every campaign.
	runs int
	// rpc selects the Fig. 12 deployment (master and node host talking
	// XML-RPC over loopback) instead of the in-process emulated platform.
	rpc bool
	// node parameterizes the emulated radios.
	node netem.NodeParams
	// extraSetups is how many set-ups without runs follow each measured
	// campaign, to give setup_s enough samples.
	extraSetups int
	// describe builds the description of a campaign of n runs. The
	// workload seed is not part of it: it reaches the program only as
	// Options.Seed, the platform seed (loss, jitter and agent randomness),
	// while the plan and the per-run seeds stay those of the description.
	describe func(n int) *desc.Experiment
}

// rpcSpeed is the real-time pacing factor of both schedulers of the
// rpc-control deployment: one virtual second lasts one wall millisecond.
// Runs there are bound by control-channel round trips, not by pacing, so
// per-run wall time is the same as at BenchmarkFig12RPCControlPlane's
// 0.0005; the doubled headroom keeps a host stall from outlasting the
// master's 120 s (virtual) run bound, which at 0.0005 aborted runs on a
// 2-vCPU VM.
const rpcSpeed = 0.001

var workloads = []workload{
	{
		name: "oneshot-campaign", runs: 300, extraSetups: 10,
		describe: func(n int) *desc.Experiment {
			e := desc.OneShot(30)
			e.Repl.Count = n
			return e
		},
	},
	{
		// 6 treatments (fact_pairs × fact_bw) × 17 replications; radios at
		// 1.5 Mbit/s as in BenchmarkExpACaseStudySweep.
		name: "casestudy-load", runs: 102, extraSetups: 10,
		node: netem.NodeParams{RateBps: 1_500_000},
		describe: func(n int) *desc.Experiment {
			e := desc.CaseStudy((n + 5) / 6)
			return e
		},
	},
	{
		name: "rpc-control", runs: 120, rpc: true, extraSetups: 3,
		describe: func(n int) *desc.Experiment {
			e := desc.OneShot(30)
			e.Repl.Count = n
			return e
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// deterministic reports whether a campaign's level-3 bytes are a function
// of the seed alone. Virtual time makes them so on the emulated platform;
// the rpc deployment is paced by the wall clock.
func (w workload) deterministic() bool { return !w.rpc }
