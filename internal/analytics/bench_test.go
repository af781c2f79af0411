package analytics

import (
	"testing"
	"time"

	"batterylab/internal/api"
)

// BenchmarkComputeBinary is an analytics miss on a measured run's trace:
// 33 s at 5 kHz (41 chunks), rollup only and in 2 s windows, folding the
// rollup or, as for a build this server measured, given it (",stored").
// Each case runs over the trace's version 2 bytes, whose buckets and
// rollup keep and sort their values, and ("v3grid,") over the version 3
// bytes a build stores of it on the 0.1 mA grid, whose buckets and rollup
// count levels; B/op shows what each keeps. The parallel case runs
// GOMAXPROCS windowed misses at once, as a server answering several at a
// time does, so no core is left idle for the windows fold.
func BenchmarkComputeBinary(b *testing.B) {
	tr := makeCapture(5, 33)
	grid := gridOf(tr)
	total, gridTotal := api.NewRunSummary(tr.Live()), api.NewRunSummary(grid.Live())
	for _, f := range []struct {
		prefix string
		data   []byte
		total  *api.RunSummary
	}{
		{"", encodeV2(b, tr), &total},
		{"v3grid,", encodeV3(b, grid), &gridTotal},
	} {
		for _, c := range []struct {
			name   string
			window time.Duration
			total  *api.RunSummary
		}{
			{"window=0", 0, nil},
			{"window=2s", 2 * time.Second, nil},
			{"window=0,stored", 0, f.total},
			{"window=2s,stored", 2 * time.Second, f.total},
		} {
			b.Run(f.prefix+c.name, func(b *testing.B) {
				q := api.AnalyticsQuery{WindowNS: int64(c.window)}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := ComputeBinary(f.data, q, c.total); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	data := encodeV2(b, tr)
	b.Run("window=2s,parallel", func(b *testing.B) {
		q := api.AnalyticsQuery{WindowNS: int64(2 * time.Second)}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := ComputeBinary(data, q, nil); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
