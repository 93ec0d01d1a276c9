package ring

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/trace"
)

// BenchmarkSectionOp times one section read and one R=2 section write
// (one b.N iteration) of a fixed one-block section through cumulative
// decorator stacks over cost-only simulator shards: the bare ring(4,2),
// then a health plane, a zero-rate fault schedule on every shard, an obs
// registry, and a trace.Recorder in front — the stack the stack-dryrun
// benchmark workload runs, without its engine. Run with
//
//	go test -run '^$' -bench SectionOp -benchtime 200000x -count 6 ./internal/ring/
//
// and take the minimum of alternating runs: ns/op is the per-op price of
// each layer as it is added, allocs/op must stay 0.
func BenchmarkSectionOp(b *testing.B) {
	type layers struct{ health, faults, obs, trace bool }
	for _, bc := range []struct {
		name string
		l    layers
	}{
		{"ring", layers{}},
		{"+health", layers{health: true}},
		{"+faults", layers{health: true, faults: true}},
		{"+obs", layers{health: true, faults: true, obs: true}},
		{"+trace", layers{health: true, faults: true, obs: true, trace: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opt := Options{Shards: 4, Replicas: 2, Disk: testDisk()}
			if bc.l.health {
				opt.Health = &health.Config{}
			}
			if bc.l.faults {
				opt.Faults = &fault.Config{Seed: 1}
			}
			if bc.l.obs {
				opt.Metrics = obs.NewRegistry()
			}
			s, err := New(opt)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var be disk.Backend = s
			if bc.l.trace {
				be = trace.NewWithDisk(s, testDisk())
			}
			a, err := be.Create("X", []int64{64, 1024})
			if err != nil {
				b.Fatal(err)
			}
			// Rows [16, 24) lie in shard 1's block of 16 rows: one run.
			lo, shape := []int64{16, 0}, []int64{8, 1024}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := a.ReadSection(lo, shape, nil); err != nil {
					b.Fatal(err)
				}
				if err := a.WriteSection(lo, shape, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
