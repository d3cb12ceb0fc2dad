// Package mcnet is a from-scratch Go reproduction of "Leveraging Multiple
// Channels in Ad Hoc Networks" (Halldórsson, Wang, Yu; PODC 2015): data
// aggregation in O(D + Δ/F + log n log log n) rounds and node coloring with
// O(Δ) colors on F channels under the SINR interference model.
//
// The root package is the public facade — the one importable surface. Build
// a Network with New and functional options, then run the paper's protocols
// with high-level verbs:
//
//	net, err := mcnet.New(48,
//		mcnet.Channels(4),
//		mcnet.Seed(42),
//		mcnet.WithTopology(mcnet.Crowd),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	res, err := net.Aggregate(ctx, values, mcnet.Sum)
//
// The facade fixes the paper's SINR model (α = 3, β = 1.5, ε = 0.3, and
// the size estimate n̂ = n) and derives all pipeline sizing (the
// cluster-size bound Δ̂, the TDMA period φ, the backbone hop bound) from
// the chosen Topology, so callers never hand-tune internal schedule
// parameters.
// Aggregate and Color honor context cancellation, results carry per-stage
// budgets vs. observed completion events plus channel utilization, and
// Events streams per-node milestones live. RunExperiment exposes the
// evaluation suite (E1–E10, ablations A1–A3, fault sweeps F1–F6, coloring
// head-to-heads C1–C3) that regenerates the paper's claimed bounds.
//
// # Coloring backends
//
// Color is pluggable: the Colorer option selects among three distributed
// coloring protocols behind one interface (ColorerNames lists them), all
// running on the same simulation engine, so every backend inherits
// determinism, cancellation, event streaming and the fault layer. "sec7"
// (the default) is the paper's Sec. 7 cluster-based algorithm, whose
// transcript is pinned bit-for-bit by a golden test; "dplus1" is a
// degree+1 list coloring that guarantees each node's color is at most its
// degree (palette ≤ Δ+1); "hsb" is a hypergraph-symmetry-breaking
// multi-channel assignment whose colors are (slot, channel) pairs — F
// colors share each TDMA slot on distinct channels, shrinking the cycle
// to ⌈palette/F⌉. ColorResult.Backend, Palette, Cycle and Rounds make
// the backends comparable, and experiments c1–c3 print the head-to-heads.
//
// # Fault injection
//
// Four fault options stress-test the schedules on non-ideal networks and
// compose freely: Loss(p) suppresses each decoded message independently
// with probability p; Jamming(k, model) lets an adversary jam k channels
// per slot — oblivious, round-robin, reactive (last slot's busiest
// channels) or adaptive (an ε-greedy bandit over decode history);
// Byzantine(frac, strategy) makes a seeded node subset lie (ByzCorrupt: a
// fixed per-node lie, ByzEquivocate: a fresh lie per slot and channel,
// ByzSilent: transmit nothing); Churn(spec) crashes nodes at explicit or
// seeded random slots. Every fault decision is a pure function of the run
// seed, so faulty runs replay bit-identically at all worker counts, and
// zero-intensity faults reproduce the
// fault-free transcript bit-for-bit. Results gain a FaultReport
// (delivered vs. lost, jammed slot-channels, crashed and Byzantine nodes,
// honest-survivor correctness — SurvivorsExact and SurvivorsAgreeing
// exclude the liars themselves). RunScenario sweeps fault grids and
// renders the standard tables; cmd/mcscenario is its CLI; experiments f4
// (Byzantine degradation), f5 (jam-adversary head-to-head) and f6
// (Byzantine × churn) quantify how far the paper's guarantees bend.
//
// # Batch execution
//
// Sweeps — fault grids, experiment axes, seeded repetitions — are sets of
// independent runs, and RunBatch executes them across a worker pool: one
// RunSpec per run (seed plus fault intensities layered onto shared base
// options), results returned in spec order. The determinism guarantee is
// strict: every worker count produces exactly the results a serial loop
// over New + Aggregate would have, in the same order, so tables built from
// a batch are byte-identical at any parallelism — the pool trades
// wall-clock time only. Precomputation is shared: specs with equal seeds
// reuse one deployment construction (topology layout, derived sizing,
// pipeline plan) with only the per-spec fault layer swapped in, so a fault
// grid over s seeds costs s deployment builds rather than one per run.
// RunScenario(ctx, spec, BatchOptions), the experiment suite
// (ExperimentOptions.Parallel) and both CLIs (-parallel) run on this
// layer; BatchOptions.Progress reports completed runs for long sweeps. The
// first run error aborts a batch, and a cancelled context returns
// ctx.Err() promptly without leaking goroutines.
//
// # Scenario service
//
// A sweep is one ScenarioSpec, which is also its stable JSON document
// (strict parsing via ParseScenarioSpec — unknown fields rejected,
// validation errors name the offending field, and n and grid points ×
// seeds are bounded before anything is allocated). ScenarioSpec.Compile
// exposes the sweep's executable form (Len/Run/Fold) so a scheduler can
// run items one at a time and fold them later. Items are pure functions of
// (spec, index), which makes sweeps resumable from any durable prefix. cmd/mcserved is the
// long-running daemon built on this (internal/serve): an HTTP/JSON
// service with a persistent on-disk job queue, per-job NDJSON result
// logs written in strict index order, SSE progress streaming, admission
// control and graceful drain — a killed daemon resumes interrupted jobs
// from the last durable item, and the finished table is byte-identical
// to an uninterrupted in-process RunScenario. cmd/mcscenario runs the
// same documents locally (-spec) or submits them to a daemon (-submit).
// All CLIs cancel cleanly on SIGINT/SIGTERM via signal.NotifyContext.
//
// # Performance options
//
// Slot resolution is the hot path. Every slot is resolved exactly: each
// listener sums the power of every same-channel transmitter, as Eq. (1)
// prescribes, and runs are deterministic at every worker count. The
// slot's transmitters and listeners are laid out per channel in
// struct-of-arrays form.
//
// Slots read their received powers from a link-gain table: the n² values
// P/d^α of the deployment, computed with the on-the-fly kernel's own
// arithmetic, so every reception stays bit-identical while a lookup
// replaces a square root and a division per pair. A Network builds the
// table lazily, on its first run rather than in New, and shares it with
// every later Aggregate or Color and with the fault variants RunBatch
// derives from the same seed. Deployments above 2048 nodes (a 32 MiB
// table), where the table would stream from memory and gain nothing,
// compute powers on the fly.
//
// The resolver has no facade knobs. The slot pipeline is allocation-free
// in steady state: the engine presizes a per-run arena (action and
// reception scratch) and listeners fan out over a persistent
// GOMAXPROCS-sized worker pool, so no per-slot allocations or goroutine
// spawns occur. See cmd/mcagg or cmd/mcscenario's
// -cpuprofile / -memprofile flags for profiling runs without editing code.
//
// The engine drives every protocol as Steppers: per-node state in
// explicit structs that the engine steps inline each slot, fanning the
// step calls out across workers for large populations, with idle
// stretches parked on a calendar wake-wheel — so a million-node crowd
// needs a handful of goroutines, not a million stacks. Each stage is
// compiled once per run, where the plan is built: its slot window,
// reception filters, round stride, counts and probability tables are
// values every node's fragment shares by pointer, so a fragment holds
// only per-node state and a node's pipeline is 568 bytes on 64-bit
// platforms. Every protocol fragment sleeps through each stretch it can
// prove idle (no radio action, no random draw, no event), up to its next
// decision and never past its stage window's end; a node that sits a
// stage out sleeps through the whole window in one step. The engine's
// per-slot passes walk only the awake nodes, so a node costs nothing
// while it has nothing to do: a
// 1024-node, 8-channel crowd Aggregate (the bench crowd-agg workload)
// makes 1.46 Step calls per transmission or listen instead of 9.46, and
// its median run time fell from 0.53 s to 0.13 s on a 2-vCPU Intel
// Xeon VM (go1.24.0). A node that listens slot after slot and acts only
// on a reception that decodes — a backbone dominator between its own TDMA
// sub-slots, an uncolored dominator waiting on its smaller neighbors'
// colors, a member waiting for its cluster's color or the final value —
// covers the run with one ListenFor: it stays a listener in every slot,
// and the engine steps it again only after a decode or at the run's end.
// On the field-agg deployment this cuts the backbone window's Step calls
// from 6.16 M to 1.45 M (internal/core TestStepCountField pins the
// bound). Transcripts are identical at every worker count;
// goldens recorded from the earlier goroutine-per-node engine pin them,
// under -race -cpu 1,2,8 in CI.
//
// # Experiments
//
// RunExperiment (and cmd/mcagg -exp) runs one table per claim, and
// testdata/golden_experiments_quick.csv and
// golden_experiments_quick_seeds3.csv freeze every table at -quick with
// -seeds 1 and -seeds 3:
//
//   - E1–E4: aggregation vs channels F (the Δ/F term), vs n, vs the
//     single-channel tree and TDMA baselines, and node coloring (Sec. 7);
//   - E5–E9: the building blocks — ruling sets (Sec. 4), cluster-size
//     approximation (Lemmas 12–14), structure construction (Theorem 10),
//     the exponential-chain lower-bound instance (Sec. 1), and backbone
//     quality (Lemmas 7–8);
//   - E10: the diameter term D on corridors, with the informed and the
//     exact share (a corridor node can learn a wrong sum);
//   - A1–A3: ablations of the follower backoff, the cluster TDMA and the
//     channel spread;
//   - F1–F6: message loss, jamming, churn, Byzantine nodes, jamming
//     adversaries head to head, and Byzantine × churn;
//   - C1–C3: the coloring backends head to head, their scaling, and their
//     robustness under churn.
//
// # Deviations from the paper
//
// The reproduction departs from the paper where the paper imports a black
// box or where its proof constants make schedules impractically long.
// Code comments cite these by number.
//
// D1, practical constants. Where the analysis picks constants for a union
// bound, the implementation uses the smallest values that keep the
// measured guarantees. Each is an unexported constant of the package that
// runs the protocol (c₁ excepted: ablation A3 varies it), and this list is
// the one place that records them. A round or slot factor k means
// ⌈k·ln n̂⌉ rounds or slots. The constants that size a stage or shape its
// schedule (round and slot factors, thresholds, doubling caps) are read
// once, where the stage is compiled (the package's New*Stage, or
// core.NewPlan for core's), into its window length, counts and per-phase
// probability tables; fragments read only fixed per-draw probabilities
// directly.
//
//	constant             value  replaces                                package
//	mu                   4      µ: HELLO probability cap 1/(2µ)         dominate
//	ackProb              0.5    ACK probability 1/(2µ)                  dominate
//	reannounceProb       0.25   — (IN re-announcement, D2)              dominate
//	roundFactor          4      O(log n) rounds per doubling phase      dominate
//	channel              0      the single channel                      dominate
//	beaconProb           0.02   — (discovery beacons, D4)               backbone
//	announceProb         0.02   — (color re-announcement, D4)           backbone
//	discoverFactor       150    — (discovery slots, D4)                 backbone
//	resolveFactor        250    — (greedy resolution slots, D4)         backbone
//	ackProb              0.7    — (tree acknowledgements, D3)           backbone
//	channel              0      the single channel                      backbone
//	txProb               0.25   — (min-ID gossip, D6)                   reporter
//	roundFactor          10     O(log n) election rounds (D6)           reporter
//	lambda               0.5    λ: probe contention target              csa
//	omega1               2      ω₁: termination count                   csa
//	gamma1               16     γ₁: probe rounds per phase              csa
//	gamma3               8      γ₃: per-channel Δ̂ of the small CSA      csa
//	ackProb              0.5    ACK probability 1/(2µ)                  ruling
//	roundFactor          14     O(log n) rounds                         ruling
//	gamma2               5      γ₂: follower rounds per phase           core
//	omega2               1      ω₂: dominator backoff threshold         core
//	lambda               0.5    λ: follower contention target           core
//	extraFollowerPhases  4      — (follower-stage padding)              core
//	Config.C1            1      c₁ = 24: channels per cluster           core
//
// The ACK probabilities drop the paper's 1/(2µ) because clear receivers of
// distinct HELLOs are already spatially sparse. Exercised by the ruling and
// dominate packages' postcondition tests, E5's violations and undominated
// columns, E6's est/truth column and E1's speedup curve.
//
// D2, dominating set. The paper adopts the O(log n) protocol of
// Scheideler, Richa and Santi as a black box. internal/dominate runs an
// equivalent HELLO/ACK/IN contention process instead, with per-phase
// probability doubling from 1/n̂ (no degree knowledge needed), periodic IN
// re-announcements by dominators, and self-appointment of nodes left
// uncovered at the end. Exercised by the dominate package's coverage and
// density tests and by E9's dominators, density, self_appointed and
// uncovered columns.
//
// D3, inter-cluster aggregation. The paper imports an aggregation tree
// over dominators (its Theorem 3). internal/backbone builds one itself: a
// flood elects the maximum-ID dominator as root and a BFS-ish tree, then
// values are convergecast and the result flooded back, all in TDMA blocks
// keyed by cluster color, with phase lengths fixed from a hop bound.
// Exercised by the backbone tree tests, E10's cast_delay column and E3,
// whose single-channel baseline runs the same tree over every node.
//
// D4, cluster coloring. Instead of the paper's φ-phase ruling-set
// coloring, dominators discover their R_{ε/2} neighbors by beacons and
// then color greedily in ID order: each waits for its smaller-ID
// neighbors to announce and takes the smallest free color. The wait is
// bounded by the stage budget; a dominator still waiting at the end takes
// a color against partial knowledge (Forced), which on long decreasing-ID
// chains — lines, row-major grids — yields conflicts (ROADMAP item 1).
// Exercised by the backbone coloring tests, E9's colors and conflicts
// columns, and the sec7 conflicts C1 reports.
//
// D5, clear receptions. Definition 4 certifies "no other node within 4r
// transmitted" with the interference threshold T_s, which under exact
// far-field accounting almost never holds in extended networks. Clear
// receptions use the largest threshold that still certifies it,
// P/(4r)^α (model.Params.ClearInterferenceBound). Exercised by the phy
// package's clear-reception tests and, through the ruling set, by E5.
//
// D6, reporter election. Instead of invoking a ruling set per (cluster,
// channel), members that chose a channel gossip the minimum ID: they share
// one r_c-ball, a single-hop environment in which the smallest ID reaches
// everyone in O(log n) rounds w.h.p. The postcondition is the paper's —
// exactly one reporter per non-empty channel. Exercised by the reporter
// election tests and the core structure-invariant tests.
//
// Everything under internal/ is implementation — the SINR physical layer,
// the slot-synchronous simulator, and the per-stage protocols — and is not
// importable from outside; examples/, cmd/ and the benchmarks consume only
// the facade. See README.md for the architecture and measured results.
package mcnet
