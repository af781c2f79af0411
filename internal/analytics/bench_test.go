package analytics

import (
	"testing"
	"time"

	"batterylab/internal/api"
)

// BenchmarkComputeBinary is an analytics miss on a measured run's trace:
// 33 s at 5 kHz (41 chunks), as a version 2 binary trace, rollup only and
// in 2 s windows, folding the rollup or, as for a build this server
// measured, given it (",stored"). The parallel case runs GOMAXPROCS
// windowed misses at once, as a server answering several at a time does,
// so no core is left idle for the windows fold.
func BenchmarkComputeBinary(b *testing.B) {
	tr := makeCapture(5, 33)
	data := encodeV2(b, tr)
	total := api.NewRunSummary(tr.Live())
	for _, c := range []struct {
		name   string
		window time.Duration
		total  *api.RunSummary
	}{
		{"window=0", 0, nil},
		{"window=2s", 2 * time.Second, nil},
		{"window=0,stored", 0, &total},
		{"window=2s,stored", 2 * time.Second, &total},
	} {
		b.Run(c.name, func(b *testing.B) {
			q := api.AnalyticsQuery{WindowNS: int64(c.window)}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ComputeBinary(data, q, c.total); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
