package batterylab

// The location-transparent backend interface of the v1 remote
// execution API: the same declarative spec runs in-process (compiled
// through the platform's workload registry) or across the network
// (POSTed to an access server and streamed back). Examples and CLIs
// written against Backend do not know — or care — where the hardware
// is; that is the paper's core promise (§3: remote access to
// distributed vantage points) surfaced as an API contract.

import (
	"context"
	"fmt"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/core"
	"batterylab/internal/remote"
	"batterylab/internal/simclock"
)

// DriveBuilds lets a virtual-clock platform serve real-time remote
// clients: it advances simulated time while the access server has
// queued or running builds and freezes it when the server is idle, so
// idle-time machinery (cron maintenance, the multi-day
// artifact-retention expiry) does not race ahead of clients still
// streaming or fetching results. It is the clock's DriveWhile: the
// server holds the clock around every submit and dispatch, so a run
// dispatched at t starts at t, and the release wakes the driver. It
// returns when stop is closed; on a real clock it is a no-op.
func DriveBuilds(clock Clock, p *Platform, stop <-chan struct{}) {
	if v, ok := clock.(*simclock.Virtual); ok {
		v.DriveWhile(func() bool { return p.Access.Running()+p.Access.QueueLength() > 0 }, stop)
	}
}

// NewAPIToken creates a platform user and returns its bearer token for
// the HTTP APIs; role is "admin", "experimenter" or "tester".
func NewAPIToken(p *Platform, name, role string) (string, error) {
	var r accessserver.Role
	switch role {
	case "admin":
		r = accessserver.RoleAdmin
	case "experimenter":
		r = accessserver.RoleExperimenter
	case "tester":
		r = accessserver.RoleTester
	default:
		return "", fmt.Errorf("batterylab: unknown role %q (want admin, experimenter or tester)", role)
	}
	u, err := p.Access.Users.Add(name, r)
	if err != nil {
		return "", err
	}
	return u.Token, nil
}

// Wire-level v1 spec types, re-exported from internal/api (which
// documents the JSON schema).
type (
	// ExperimentSpecV1 is the declarative wire form of one measurement
	// run: node, device, named workload + params, monitor config,
	// constraints.
	ExperimentSpecV1 = api.ExperimentSpec
	// CampaignSpecV1 is the wire form of a measurement campaign.
	CampaignSpecV1 = api.CampaignSpec
	// WorkloadSpec names a registry workload and its parameters.
	WorkloadSpec = api.WorkloadSpec
	// MonitorSpec configures the monitor and sampling cadences.
	MonitorSpec = api.MonitorSpec
	// Params carries workload parameters with JSON-tolerant getters.
	Params = api.Params
	// NodeInfo describes one vantage point and its devices.
	NodeInfo = api.NodeInfo
	// NodeDetail is one vantage point's lifecycle snapshot (health,
	// heartbeat age, drain flag, leased builds).
	NodeDetail = api.NodeDetail
	// APIError is the typed error envelope of the v1 wire protocol;
	// branch on its Code.
	APIError = api.Error
)

// ExperimentHandle is the handle of one run, local or remote — there is
// one: Wait for the result, Cancel at the earliest safe point, Done for
// select loops, Phase for progress, Build for the server's build id. It
// follows the build through a port (in process, or over HTTP) and reads
// the settled build's wire status the same way on either, so a run's
// Result and error are the same wherever it ran.
type ExperimentHandle = *core.Experiment

// CampaignHandle is the handle of a campaign, local or remote: one
// ExperimentHandle per member, whose Wait returns the same CampaignRun
// for the same build on either backend.
type CampaignHandle = *core.CampaignSession

// Backend runs declarative v1 specs somewhere — in this process or on
// a remote access server. Construct with LocalBackend or RemoteBackend;
// both start the one handle, over the in-process port or the HTTP one.
type Backend interface {
	// StartExperimentSpec submits one run and returns its handle.
	StartExperimentSpec(ctx context.Context, spec ExperimentSpecV1, obs ...Observer) (ExperimentHandle, error)
	// StartCampaignSpec submits a batch to an access server; runs fan
	// out across vantage points, serialized per node.
	StartCampaignSpec(ctx context.Context, spec CampaignSpecV1, obs ...Observer) (CampaignHandle, error)
	// Nodes lists the reachable vantage points and their devices.
	Nodes(ctx context.Context) ([]NodeInfo, error)
	// Workloads lists the workload registry's names.
	Workloads(ctx context.Context) ([]string, error)
}

// LocalBackend adapts an in-process Platform to the Backend interface:
// experiments and campaigns queue on the platform's own access server,
// exactly as Platform.StartExperimentSpec and StartCampaignSpec do (both
// drive a virtual clock from Wait).
func LocalBackend(p *Platform) Backend {
	return backend{
		experiment: p.StartExperimentSpec,
		campaign:   p.StartCampaignSpec,
		nodes:      func(context.Context) ([]NodeInfo, error) { return p.Access.NodeInfos(), nil },
		workloads:  func(context.Context) ([]string, error) { return p.Workloads().Names(), nil },
	}
}

// RemoteBackend connects to an access server's v1 API and returns a
// Backend whose handles stream phase events and live samples back and
// reconstruct results from the build workspace. server is the base
// URL (e.g. "http://lab.example:9090"); token is the user's API token.
func RemoteBackend(server, token string) (Backend, error) {
	p, err := remote.Dial(server, token)
	if err != nil {
		return nil, err
	}
	return backend{p.StartExperiment, p.StartCampaign, p.Nodes, p.WorkloadNames}, nil
}

// backend is a Backend bound to one platform, in process or remote.
type backend struct {
	experiment func(context.Context, ExperimentSpecV1, ...Observer) (ExperimentHandle, error)
	campaign   func(context.Context, CampaignSpecV1, ...Observer) (CampaignHandle, error)
	nodes      func(context.Context) ([]NodeInfo, error)
	workloads  func(context.Context) ([]string, error)
}

func (b backend) StartExperimentSpec(ctx context.Context, spec ExperimentSpecV1, obs ...Observer) (ExperimentHandle, error) {
	return b.experiment(ctx, spec, obs...)
}

func (b backend) StartCampaignSpec(ctx context.Context, spec CampaignSpecV1, obs ...Observer) (CampaignHandle, error) {
	return b.campaign(ctx, spec, obs...)
}

func (b backend) Nodes(ctx context.Context) ([]NodeInfo, error) { return b.nodes(ctx) }

func (b backend) Workloads(ctx context.Context) ([]string, error) { return b.workloads(ctx) }
