package main

import (
	"fmt"
	"math/rand"
	"sort"

	"batterylab/internal/api"
)

// sizes fixes how much work one pass of each workload does. The frozen
// values are what BENCHMARK.json's numbers refer to; the smoke test runs
// the same code at about a fiftieth of them.
type sizes struct {
	// backlog: Campaigns*CampaignSize spec builds over Nodes synthetic
	// vantage points, AbortPct percent of them cancelled while queued.
	BacklogNodes     int
	BacklogCampaigns int
	CampaignSize     int
	AbortPct         int

	// dashboard: Campaigns*CampaignSize builds whose backend posts
	// DashSamples samples and DashEvents events each, all followed over
	// HTTP, then DashReads status reads.
	DashNodes     int
	DashCampaigns int
	DashSamples   int
	DashEvents    int
	DashReads     int

	// measure: closed loop of MeasureExperiments browser measurements
	// at MeasureRateHz on one real simulated vantage point.
	MeasureExperiments int
	MeasurePages       int
	MeasureScrolls     int
	MeasureRateHz      int
	AnalyticsWindowMS  int

	// restart: a backlog-shaped server of RestartCampaigns*CampaignSize
	// builds crashed with a third of them unfinished; each pass recovers
	// RestartRecovers fresh copies of its WAL.
	RestartNodes     int
	RestartCampaigns int
	RestartRecovers  int

	// Direct-call probes of the traced run.
	ProbeSamples int // feedhub posts, samples.Series appends
}

// frozenSizes are the benchmark's input sizes. They were scaled from the
// issue's prototype (12 000 / 1 500 / 60 / 6 000 builds) so that a pass
// takes 2-5 s on the 2-vCPU reference box and a run holds several
// passes; see README.md "Sizes".
var frozenSizes = sizes{
	BacklogNodes: 100, BacklogCampaigns: 72, CampaignSize: 50, AbortPct: 2,
	DashNodes: 20, DashCampaigns: 30, DashSamples: 600, DashEvents: 40, DashReads: 40000,
	MeasureExperiments: 8, MeasurePages: 2, MeasureScrolls: 4, MeasureRateHz: 5000, AnalyticsWindowMS: 2000,
	RestartNodes: 100, RestartCampaigns: 60, RestartRecovers: 3,
	ProbeSamples: 400000,
}

// Read kinds of the dashboard's seeded read mix.
const (
	readStatus   = "status"
	readNodes    = "nodes"
	readCampaign = "campaign"
	readMetrics  = "metrics"
)

// ReadOp is one dashboard read: Target indexes the submitted builds
// (status) or campaigns (campaign) in submission order.
type ReadOp struct {
	Kind   string `json:"kind"`
	Target int    `json:"target,omitempty"`
}

// FleetInputs is a backlog-shaped submission: campaigns in arrival
// order and the positions (0-based, in submission order) of the builds
// to cancel while they are still queued.
type FleetInputs struct {
	Nodes     []string           `json:"nodes"`
	Campaigns []api.CampaignSpec `json:"campaigns"`
	Aborts    []int              `json:"aborts"`
}

// Builds is the number of builds the submission creates.
func (f *FleetInputs) Builds() int {
	n := 0
	for _, c := range f.Campaigns {
		n += len(c.Experiments)
	}
	return n
}

// Inputs is everything a workload's pass consumes. It is generated once
// per set-up from the seed; the workloads never see the seed itself.
type Inputs struct {
	Backlog   FleetInputs `json:"backlog"`
	Dashboard struct {
		Fleet FleetInputs `json:"fleet"`
		Reads []ReadOp    `json:"reads"`
	} `json:"dashboard"`
	Measure struct {
		// DeploymentSeed drives the simulated vantage point's stochastic
		// models (and the local control deployment's).
		DeploymentSeed uint64               `json:"deployment_seed"`
		Experiments    []api.ExperimentSpec `json:"experiments"`
		WindowNS       int64                `json:"window_ns"`
	} `json:"measure"`
	Restart FleetInputs `json:"restart"`
}

// syntheticWorkload is the registry name the synthetic backend serves.
const syntheticWorkload = "synthetic"

// nodeName and deviceName follow the repo's bench harness conventions.
func nodeName(i int) string         { return fmt.Sprintf("node%03d", i) }
func deviceName(node string) string { return "dev-" + node }

// genFleet builds a backlog-shaped submission. What varies with the seed
// is the order of things — which node a build prefers, which campaigns
// are the larger ones, which queued builds get cancelled — never the
// amount of work: the multiset of campaign sizes, the total build count
// and the number of aborts are functions of the sizes alone.
func genFleet(rng *rand.Rand, nodes, campaigns, campaignSize, abortPct int, capAll bool) FleetInputs {
	var f FleetInputs
	for i := 0; i < nodes; i++ {
		f.Nodes = append(f.Nodes, nodeName(i))
	}
	order := rng.Perm(nodes) // builds go round-robin over a seeded node order

	// Campaign sizes: thirds at -20 %, 0, +20 % of the nominal size, in a
	// seeded order; leftovers nominal, so the total is exact.
	sz := make([]int, campaigns)
	spread := campaignSize / 5
	for i := range sz {
		sz[i] = campaignSize
		if i < campaigns-campaigns%3 {
			sz[i] += []int{-spread, 0, spread}[i%3]
		}
	}
	rng.Shuffle(len(sz), func(i, j int) { sz[i], sz[j] = sz[j], sz[i] })

	pos := 0
	for c := 0; c < campaigns; c++ {
		cs := api.CampaignSpec{}
		if capAll || c%2 == 1 {
			cs.MaxConcurrent = 10
		}
		for j := 0; j < sz[c]; j++ {
			n := f.Nodes[order[pos%nodes]]
			cs.Experiments = append(cs.Experiments, api.ExperimentSpec{
				Node: n, Device: deviceName(n),
				Workload:    api.WorkloadSpec{Name: syntheticWorkload},
				Constraints: api.ConstraintsSpec{AllowFallback: true},
			})
			pos++
		}
		f.Campaigns = append(f.Campaigns, cs)
	}

	// Aborts come from the second half of the submission: those builds
	// are still queued when the cancels arrive, whatever the seed.
	total := pos
	want := total * abortPct / 100
	tail := total / 2
	picked := rng.Perm(total - tail)[:want]
	for _, p := range picked {
		f.Aborts = append(f.Aborts, tail+p)
	}
	sort.Ints(f.Aborts)
	return f
}

// studyBrowsers are the four browsers of the paper's study (§4.2).
var studyBrowsers = []string{"Brave", "Chrome", "Edge", "Firefox"}

// generate derives every workload's inputs from the seed.
func generate(seed uint64, sz sizes) *Inputs {
	in := &Inputs{}
	// One generator per workload, so changing one workload's sizes never
	// shifts another's inputs.
	sub := func(k int64) *rand.Rand { return rand.New(rand.NewSource(int64(seed)*1000003 + k)) }

	in.Backlog = genFleet(sub(1), sz.BacklogNodes, sz.BacklogCampaigns, sz.CampaignSize, sz.AbortPct, false)

	in.Dashboard.Fleet = genFleet(sub(2), sz.DashNodes, sz.DashCampaigns, sz.CampaignSize, 0, true)
	{
		rng := sub(3)
		builds := in.Dashboard.Fleet.Builds()
		n := sz.DashReads
		// Exact mix: 10 % nodes, 1 % campaign, 1 % metrics, the rest
		// status; only the order and the targets are seeded.
		for i := 0; i < n; i++ {
			switch {
			case i%10 == 0:
				in.Dashboard.Reads = append(in.Dashboard.Reads, ReadOp{Kind: readNodes})
			case i%100 == 1:
				in.Dashboard.Reads = append(in.Dashboard.Reads, ReadOp{Kind: readCampaign, Target: rng.Intn(sz.DashCampaigns)})
			case i%100 == 2:
				in.Dashboard.Reads = append(in.Dashboard.Reads, ReadOp{Kind: readMetrics})
			default:
				in.Dashboard.Reads = append(in.Dashboard.Reads, ReadOp{Kind: readStatus, Target: rng.Intn(builds)})
			}
		}
		rng.Shuffle(n, func(i, j int) {
			in.Dashboard.Reads[i], in.Dashboard.Reads[j] = in.Dashboard.Reads[j], in.Dashboard.Reads[i]
		})
	}

	{
		rng := sub(4)
		in.Measure.DeploymentSeed = seed
		in.Measure.WindowNS = int64(sz.AnalyticsWindowMS) * 1e6
		// Every browser the same number of times (as far as the count
		// divides), in a seeded order.
		names := make([]string, sz.MeasureExperiments)
		for i := range names {
			names[i] = studyBrowsers[i%len(studyBrowsers)]
		}
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for _, b := range names {
			in.Measure.Experiments = append(in.Measure.Experiments, api.ExperimentSpec{
				// Node and Device are filled in from the deployment.
				Monitor: api.MonitorSpec{SampleRateHz: sz.MeasureRateHz},
				Workload: api.WorkloadSpec{Name: "browser", Params: api.Params{
					"browser": b, "pages": sz.MeasurePages, "scrolls": sz.MeasureScrolls,
				}},
			})
		}
	}

	in.Restart = genFleet(sub(5), sz.RestartNodes, sz.RestartCampaigns, sz.CampaignSize, sz.AbortPct, false)
	return in
}
