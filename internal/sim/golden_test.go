package sim_test

// Golden end-to-end pins: SHA-256 digests of a run's Metrics (as JSON), its
// observer JSONL and its provenance JSONL, for a fixed set of runs that
// together cover the Table 3 harness, the delivery paths of every protocol
// family, a 10k-node completion run, seeded chaos with faults, arrivals and
// the self-stabilizing hierarchy, lossy delivery under every fault class
// without it, and a replay of a decoded trace file.
// Every case runs serially and on 4 workers; both must produce the pinned
// digests, so these runs are bit-identical across engine refactors and
// across the serial/parallel split. A refactor that is meant to change no
// simulated output must leave this file untouched.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/tvg"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// goldenDigest is one run's pinned output: hex SHA-256 of the Metrics JSON,
// the observer JSONL and the provenance JSONL.
type goldenDigest struct {
	Metrics, Events, Provenance string
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenRun executes proto on d with a JSONL collector and a provenance
// tracer attached and digests all three outputs.
func goldenRun(t *testing.T, d ctvg.Dynamic, proto sim.Protocol, assign *token.Assignment, phaseLen int, opts sim.Options) goldenDigest {
	t.Helper()
	var events, prov bytes.Buffer
	col := obs.NewCollector(obs.Config{
		N: d.N(), K: assign.K, PhaseLen: phaseLen, Sink: &events, SizeFn: wire.Size,
		Arrivals: opts.Arrivals != nil,
	})
	tr := provenance.New(provenance.Config{Sink: &prov})
	opts.Observer = col.Observer()
	opts.Tracer = tr
	opts.SizeFn = wire.Size
	met, err := sim.RunProtocol(d, proto, assign, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Flush(); err != nil {
		t.Fatalf("collector: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("tracer: %v", err)
	}
	mj, err := json.Marshal(met)
	if err != nil {
		t.Fatal(err)
	}
	return goldenDigest{sha(mj), sha(events.Bytes()), sha(prov.Bytes())}
}

// goldenTable3 runs the Table 3 point (all four rows, 2 seeds each) through
// the experiment harness with per-seed metrics and provenance files, on a
// pool of `workers`, and digests the row results and the concatenated
// files (in name order).
func goldenTable3(t *testing.T, workers int) goldenDigest {
	t.Helper()
	dir := t.TempDir()
	cfg := experiment.Table3Config(2)
	cfg.Workers = workers
	cfg.MetricsDir = filepath.Join(dir, "metrics")
	cfg.ProvenanceDir = filepath.Join(dir, "prov")
	rows, err := experiment.RunPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	cat := func(d string) []byte {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		if len(names) != 8 {
			t.Fatalf("%s holds %d files, want 8 (4 rows x 2 seeds)", d, len(names))
		}
		var all []byte
		for _, name := range names {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, name...)
			all = append(all, '\n')
			all = append(all, b...)
		}
		return all
	}
	return goldenDigest{sha(rj), sha(cat(cfg.MetricsDir)), sha(cat(cfg.ProvenanceDir))}
}

// goldenChaos builds chaos case `seed`: a small churning (T, L)-HiNet with a
// random fault plan, a random arrival process and the self-stabilizing
// hierarchy, running Alg1 or Alg2 with failover.
func goldenChaos(seed uint64) (ctvg.Dynamic, sim.Protocol, *token.Assignment, int, sim.Options) {
	rng := xrand.New(seed)
	n := 24 + rng.Intn(40)
	k := 1 + rng.Intn(5)
	L := 1 + rng.Intn(2)
	theta := 2 + rng.Intn((n/2-1)/L-1)
	alpha := 1 + rng.Intn(3)
	T := core.Theorem1T(k, alpha, L)
	budget := 4 * core.Theorem1Phases(theta, alpha) * T

	plan := &sim.Faults{Seed: rng.Uint64(), DropProb: rng.Float64() * 0.15}
	if rng.Bool() {
		plan.Burst = &faults.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, DropBad: 0.8}
	}
	if rng.Bool() {
		plan.DupProb = rng.Float64() * 0.1
	}
	plan.CrashAt = map[int]int{}
	plan.RecoverAfter = map[int]int{}
	for c := 0; c < 1+n/8; c++ {
		v := rng.Intn(n)
		plan.CrashAt[v] = rng.Intn(budget / 2)
		if rng.Bool() {
			plan.RecoverAfter[v] = 1 + rng.Intn(3*T)
		}
	}
	plan.HeadCrashRounds = []int{rng.Intn(budget / 2)}
	plan.HeadCrashDowntime = 1 + rng.Intn(2*T)

	arr := &sim.Arrivals{Rate: 0.1 + rng.Float64(), Seed: rng.Uint64(), Stop: 1 + rng.Intn(budget/2)}
	if rng.Bool() {
		arr.OnRounds, arr.OffRounds = 1+rng.Intn(4), 1+rng.Intn(8)
	}

	cfg := adversary.HiNetConfig{
		N: n, Theta: theta, L: L, T: T,
		Reaffiliations: rng.Intn(4), ChurnEdges: rng.Intn(8),
	}
	phaseLen := T
	var proto sim.Protocol = core.Alg1{T: T, Failover: &core.Failover{Window: 1 + rng.Intn(2*T)}}
	if rng.Bool() {
		cfg.T, phaseLen = 1, 1
		proto = core.Alg2{Failover: &core.Failover{Window: 1 + rng.Intn(2*T)}}
	}
	advSeed := rng.Uint64()
	opts := sim.Options{
		MaxRounds:        budget,
		StopWhenComplete: true,
		StallWindow:      4 * T,
		Faults:           plan,
		Arrivals:         arr,
		SelfStabilize:    &sim.SelfStabilize{OrphanAfter: 1 + rng.Intn(3), Watchdog: T + rng.Intn(4*T)},
	}
	return adversary.NewHiNet(cfg, xrand.New(advSeed)), proto, token.Spread(n, k, xrand.New(advSeed+1)), phaseLen, opts
}

// goldenDigests holds the pinned digests, keyed by case name.
var goldenDigests = map[string]goldenDigest{
	"table3": {
		Metrics:    "e77b4b3667fc4ef980a5ca91045aac193ee2e7e7974e7ebbc2d6a7bac3598db2",
		Events:     "ae96660b3b63e02c99124ab38d7f990ede99750718ad84c783a9bf3af81cc4f1",
		Provenance: "ec91a3f55c81b0a8096a0d255f29bd7c247444d3ed1f7fec89dee80505602f24",
	},
	"alg2": {
		Metrics:    "9001f83a1f58e80c47756462acbe5df244fc41bc701b30ee56b69ee932006e11",
		Events:     "cc9c3ed4586124344734a26d15fd43707b31c3bfaf6af8a7d2ae25d73c684f59",
		Provenance: "7487e51ce9fb50898a27f91c2d9a46ea20d9038fd0834c23ec3435232d832ea1",
	},
	"alg2-failover": {
		Metrics:    "e695979255bbbe96d7ba1049a3ca8cfdcea066b31101f458da7bc24894b72e50",
		Events:     "a80cbbff2ead0ece9d35b256c04fb7fd913d5f9a8ac22abd840e2951c7428ffb",
		Provenance: "8e7cc258ffd8e9928ee899b8cccb42a4b900d5b2d95b3b540ef8d493ee6b18ac",
	},
	"alg1-failover": {
		Metrics:    "0796979766d4a9d23db95148e7b19b9323a71584893f635462c4a699a9b9dbcd",
		Events:     "08b226d5df80fe754005aec23f7467012b24c1e54893004bc80acdd768971cca",
		Provenance: "1dbdd49aaf82989bf7c835082f7cb32465474e631b058e381f329762b7e26289",
	},
	"flood-star": {
		Metrics:    "18be5fadcc1341a15949c6e0a57ae42ee26e55086ffefaf7c90b3caef5d6a884",
		Events:     "f71c1e6f00f76440b4aba0719105a5de343f4960d99beb6077339430ef323bcf",
		Provenance: "1cbb584cd2647f847ea491bbd71bd4317d0b3bc321859cb36ac7fff0a93e9115",
	},
	"hinet10k-alg2": {
		Metrics:    "7a9241e73ef5f6338409dfc8df5da7c9e1776d8b5682f93c16bef4fb6dd7781d",
		Events:     "136a311f6296e40a1279ac806c22e222394c050cac83e447d735da4585999181",
		Provenance: "95c52986af6ecf08a73245bd87252feeb7dd6f24d709595be1a2229c3dc2fc7f",
	},
	"chaos-1": {
		Metrics:    "6e3e1fc6213a96912915d028cbb525ac24495d913058d855fecd0b57d29d730d",
		Events:     "033ffc4674377db4016dacbb0c4108e7ce074c2cfdf6df8eabd094d1497410f6",
		Provenance: "4478fe918215ab7b6d30cd755a3562f0924d7f0956716d073a8e3264615d57cb",
	},
	"chaos-2": {
		Metrics:    "459bc7e3073c6aaafa9d568f1decb5319a97db68442807710450ff947516a6f2",
		Events:     "9e0dfc96456aa76b10aff7a07d835d8904eb172a7f2572bb11d20fa59ca62935",
		Provenance: "04717234f47b791f6da3d52c90d1787b005040ce08ebf030d11c97ee4bdff5ad",
	},
	"chaos-3": {
		Metrics:    "a67c7ef4bd84cc4ba6b8fcc04732a03952b80c76832f0f43c2f76fbb6cc72432",
		Events:     "ed6d3ad528cbe2aeb0c685a4ff4266a02712f71c18f127276e4d4d8099233210",
		Provenance: "8b0bddd15200750b6df8fd4e133da9755508905dca54ee1fa59147acd57226d5",
	},
	"chaos-4": {
		Metrics:    "73546433048a729def21c5bca7a711f4eb516e991dd267e36cd27d7098e0127d",
		Events:     "f1e97ade18cafded3eb0234182cde34b95d7519cbe51dd54093ec07826bf21b4",
		Provenance: "c8a68856a2d42373aece567c77db7fc495f907b86a7a65fde37577fec9f6f1c2",
	},
	"chaos-5": {
		Metrics:    "83d0ad64b788f83410aaac11a0420116619ea24eea0c557903f2599df36fa534",
		Events:     "f0abebba87b4f492ab933e0f0f4270523a6178393abf3959750d86a3340c3ed2",
		Provenance: "cfd6e03b40174aef586cfa88358b54562301a3bf709c99b945d3c20a03895992",
	},
	"chaos-6": {
		Metrics:    "a245bd32c41553ced27f68dbc472d100f1ebd50cbf70ee00c72e993c4ee7330a",
		Events:     "bba624aba5a6550425b0a270774de8407cc8c7f60e3833a1fd4bdf037126c10c",
		Provenance: "c8540c86c19925351319fb4bf31b6332e2ecb733094219ef73cb601078f1c6e0",
	},
	"chaos-7": {
		Metrics:    "e3e6c83b25f14f8062727b74ef31f9767eaf9163791e8a6484f7aa8615db4043",
		Events:     "ec295c3b9e533c53c9e3c3b70077f3937cd4f53cbb7c98c86e342ecca6227dc8",
		Provenance: "1f40801b7b73c6e7f674b2d06e1f14ccf51b12f843d4a165d34a99832e5e8a0e",
	},
	"chaos-8": {
		Metrics:    "51cbbfaf270a2393be7f918e8932118e693a4c9c1338fedc33a96ba615eed71c",
		Events:     "d01f8786cdecb2a33903f8adbed4ee624445dc059fca294450d09b94c91f41e1",
		Provenance: "5fb6ac067d26eb066e479590e108ae13f0bcbaddbf1163763db788c9e835cdfc",
	},
	"fault-plan": {
		Metrics:    "27449d575d87e47794c0f4c17589b337a51d428346ffcf33c931f16238062045",
		Events:     "160b80f73ed230cb435847d9cd018d51ec793675ed5ee619658bfba4d37242b6",
		Provenance: "71a4235717991456f23f917cb1faabef22a5d21db8ff59ff66f729b5b5fbc54a",
	},
	"trace-replay": {
		Metrics:    "a041d3c562441ed5d2bf607a3185d4dc2b67b78688d63b0084bb7f35fab01de1",
		Events:     "8900a4e4adb5b0bc21195be3ea82e87bd7ea9fcdb4a764171d4a896e589641b4",
		Provenance: "5203c12686cbdd4b217281559d98afdc3b54855195bbcf220dfff7a2202e60d4",
	},
}

func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs include a 10k-node run")
	}
	type goldenCase struct {
		name string
		run  func(t *testing.T, workers int) goldenDigest
	}
	var cases []goldenCase

	cases = append(cases, goldenCase{"table3", goldenTable3})

	// The delivery scenarios: Alg2's every-round relay broadcasts, Alg2
	// and Alg1 failover under crashes (acting heads, floods, NACK
	// re-uploads), and the KLO flood on a star — the topology that most
	// stresses the degree-aware shard partition.
	{
		const n, k, alpha, L = 80, 8, 2, 2
		theta := 12
		T := core.Theorem1T(k, alpha, L)
		rounds := core.Theorem1Phases(theta, alpha) * T
		rec := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: L, T: T,
			Reaffiliations: 6, HeadChurn: 2,
		}, xrand.New(1)), rounds)
		assign := token.Spread(n, k, xrand.New(2))
		crashAt := map[int]int{5: 3, 33: T + 3, 61: 2*T + 7}
		for _, sc := range []struct {
			name    string
			proto   sim.Protocol
			crashAt map[int]int
		}{
			{"alg2", core.Alg2{}, nil},
			{"alg2-failover", core.Alg2{Failover: &core.Failover{Window: 2}}, crashAt},
			{"alg1-failover", core.Alg1{T: T, Failover: &core.Failover{Window: 2}}, crashAt},
		} {
			sc := sc
			cases = append(cases, goldenCase{sc.name, func(t *testing.T, workers int) goldenDigest {
				opts := sim.Options{MaxRounds: rounds, Workers: workers}
				if sc.crashAt != nil {
					opts.Faults = &sim.Faults{CrashAt: sc.crashAt}
				}
				return goldenRun(t, rec, sc.proto, assign, T, opts)
			}})
		}
		cases = append(cases, goldenCase{"flood-star", func(t *testing.T, workers int) goldenDigest {
			const n, k = 60, 6
			d := sim.NewFlat(tvg.Static{G: graph.Star(n, 0)})
			return goldenRun(t, d, baseline.Flood{}, token.Spread(n, k, xrand.New(3)), 1,
				sim.Options{MaxRounds: baseline.FloodRounds(n), Workers: workers})
		}})
	}

	// BenchmarkHiNet10kAlg2's instance: Algorithm 2 to completion on a
	// recorded 10000-node (20, 2)-HiNet.
	cases = append(cases, goldenCase{"hinet10k-alg2", func(t *testing.T, workers int) goldenDigest {
		const n, k, alpha, l, theta = 10000, 16, 2, 2, 50
		T := core.Theorem1T(k, alpha, l)
		rounds := core.Theorem1Phases(theta, alpha) * T
		rec := ctvg.Record(adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: l, T: T,
			Reaffiliations: 200, HeadChurn: 2,
		}, xrand.New(1)), rounds)
		return goldenRun(t, rec, core.Alg2{}, token.Spread(n, k, xrand.New(2)), 1,
			sim.Options{MaxRounds: 400, StopWhenComplete: true, Workers: workers})
	}})

	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		cases = append(cases, goldenCase{fmt.Sprintf("chaos-%d", seed), func(t *testing.T, workers int) goldenDigest {
			d, proto, assign, phaseLen, opts := goldenChaos(seed)
			opts.Workers = workers
			return goldenRun(t, d, proto, assign, phaseLen, opts)
		}})
	}

	// Lossy delivery without the self-stabilizing hierarchy: every chaos
	// case sets SelfStabilize, so this is the one pin on delivery's
	// per-sender Drop path through the burst channel.
	cases = append(cases, goldenCase{"fault-plan", func(t *testing.T, workers int) goldenDigest {
		d, proto, assign, phaseLen, opts := fullFaultPlan(workers)
		return goldenRun(t, d, proto, assign, phaseLen, opts)
	}})

	// A trace file in the delta format, decoded and replayed (the shape
	// `hinettrace record` writes by default).
	cases = append(cases, goldenCase{"trace-replay", func(t *testing.T, workers int) goldenDigest {
		var buf bytes.Buffer
		adv := adversary.NewHiNet(adversary.HiNetConfig{
			N: 50, Theta: 10, L: 2, T: 12, Reaffiliations: 3, ChurnEdges: 5,
		}, xrand.New(1))
		if err := trace.WriteDelta(&buf, ctvg.Record(adv, 60)); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return goldenRun(t, tr, core.Alg2{Failover: &core.Failover{Window: 2}}, token.Spread(50, 8, xrand.New(1)), 1,
			sim.Options{
				MaxRounds: tr.Len(), StopWhenComplete: true, Workers: workers,
				Faults: &sim.Faults{Seed: 7, DropProb: 0.05, CrashAt: map[int]int{3: 10, 17: 20}},
			})
	}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial := c.run(t, 1)
			parallel := c.run(t, 4)
			if parallel != serial {
				t.Errorf("workers=4 digests differ from the serial run:\n  serial   %+v\n  parallel %+v", serial, parallel)
			}
			want, ok := goldenDigests[c.name]
			if !ok {
				t.Errorf("no pinned digest; got %#v", serial)
				return
			}
			if serial != want {
				t.Errorf("digests differ from the pinned outputs:\n  got  %#v\n  want %#v", serial, want)
			}
		})
	}
}
