package main

import (
	"fmt"

	"rubix/internal/geom"
	"rubix/internal/sim"
)

// workloadDef is one benchmark workload: the Suite options it runs under
// (its seed filled in per run) and the spec grid it simulates. README.md
// records why each workload was chosen.
type workloadDef struct {
	Name string
	// Opts returns the Suite options for a run seeded with seed.
	Opts func(seed uint64) sim.Options
	// Grid is the sweep's spec list; for rubixd-mixed it is the script's
	// specs at the paper's T_RH, whose served results are checked against
	// the goldens.
	Grid []sim.RunSpec
}

// grid returns the cross product workloads × mappings × mitigations at trh,
// in that nesting order.
func grid(wls, maps, mits []string, trh int) []sim.RunSpec {
	var out []sim.RunSpec
	for _, w := range wls {
		for _, m := range maps {
			for _, t := range mits {
				out = append(out, sim.RunSpec{Workload: w, Mapping: m, Mitigation: t, TRH: trh})
			}
		}
	}
	return out
}

const (
	// sweepTRH is the paper's headline Rowhammer threshold (Figs 8, 13, 15).
	sweepTRH = 128
	// sweep1chScale sizes one sweep at roughly 3–3.5 s of host time on a
	// 2-vCPU host, so one run holds many sweeps; at this scale SRS and
	// AQUA already migrate rows under coffeelake.
	sweep1chScale = 0.04
	// rubixdScale keeps one simulation at a few milliseconds, so service
	// overhead dominates the rubixd-mixed workload.
	rubixdScale = 0.002
	// shardScale sizes the traced run's shard probe.
	shardScale = 0.01
)

// shardOpts and shardSpecs are Figure 15's setup (8 cores, 4 channels,
// default Options so Shards is auto) restricted to the mitigations that
// shard: the traced run times them sharded and serial for
// sim.shard_speedup. An end-to-end workload on this setup was dropped
// because run-to-run spread of the sharded path on a 2-vCPU host exceeded
// what a gate can hold (README.md).
func shardOpts(seed uint64) sim.Options {
	return sim.Options{
		Scale: shardScale, Cores: 8, Geometry: geom.DDR4_32GB4Ch(),
		Seed: seed, SeedSet: true, Mixes: []int{},
	}
}

var shardSpecs = grid([]string{"lbm", "mcf"}, []string{"coffeelake", "rubixs-gs4"}, []string{"none", "blockhammer"}, sweepTRH)

var workloadDefs = []workloadDef{
	{
		Name: "sweep-1ch",
		Opts: func(seed uint64) sim.Options {
			return sim.Options{
				Scale: sweep1chScale, Cores: 4, Geometry: geom.DDR4_16GB(),
				Seed: seed, SeedSet: true, Mixes: []int{},
			}
		},
		Grid: grid([]string{"lbm", "mcf", "gcc", "xz"},
			[]string{"coffeelake", "rubixs-gs4", "rubixd-gs4"},
			[]string{"none", "aqua", "srs", "blockhammer"}, sweepTRH),
	},
	{
		Name: "rubixd-mixed",
		Opts: func(seed uint64) sim.Options {
			return sim.Options{
				Scale: rubixdScale, Cores: 4, Geometry: geom.DDR4_16GB(),
				Seed: seed, SeedSet: true, Mixes: []int{},
			}
		},
		Grid: figureGrid(rubixdWorkloads, sweepTRH),
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// instrPerRun is the instructions one simulation of opts retires: every
// core runs to the same target (sim.Options.Scale × 250M).
func instrPerRun(o sim.Options) float64 {
	return float64(o.Cores) * float64(uint64(250_000_000*o.Scale))
}
