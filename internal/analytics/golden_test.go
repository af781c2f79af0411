package analytics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/trace"
)

// goldenWindows are the windows every fixture is asked in: none, one too
// fine for the 33 s capture, and ones that cut each trace into many
// buckets, a few, or one.
var goldenWindows = []time.Duration{0, time.Millisecond, 100 * time.Millisecond, 2 * time.Second, 10 * time.Second}

// goldenAnswers is one line per fixture of traceFixtures and window of
// goldenWindows, in name order: the fixture, the window and either the
// error of ComputeBinary or the JSON of its answer. A last line answers
// the capture in 2 s windows given its stored summary.
func goldenAnswers(t testing.TB) []byte {
	fixtures := traceFixtures(t)
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	line := func(label string, res *api.AnalyticsResult, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s error: %v\n", label, err)
			return
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", label, js)
	}
	for _, name := range names {
		for _, w := range goldenWindows {
			res, err := ComputeBinary(fixtures[name], api.AnalyticsQuery{WindowNS: int64(w)}, nil)
			line(fmt.Sprintf("%s window=%v", name, w), res, err)
		}
	}
	data := fixtures["capture.v2"]
	tr, err := trace.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	total := api.NewRunSummary(tr.Live())
	res, err := ComputeBinary(data, api.AnalyticsQuery{WindowNS: int64(2 * time.Second)}, &total)
	line("capture.v2 window=2s stored", res, err)
	return b.Bytes()
}

// TestAnswersGolden: every answer goldenAnswers lists is, byte for byte,
// the one testdata/answers.golden holds. The file pins the answers across
// versions of the engine; it is written once and never regenerated, so a
// change that moves one byte of one answer fails here.
func TestAnswersGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "answers.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenAnswers(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("answers.golden line %d:\n got %.400s\nwant %.400s", i+1, g, w)
		}
	}
}
