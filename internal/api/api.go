// Package api defines the wire-level v1 types of BatteryLab's remote
// execution API: the declarative experiment/campaign specs a client
// submits over HTTP, the typed error envelope every non-2xx response
// carries, and the event/sample records the streaming endpoints emit.
// The package is deliberately a leaf — JSON structs and small helpers
// only — so the server (internal/accessserver, internal/core) and the
// client (internal/remote) share one schema without import cycles.
//
// # Spec JSON schema (v1)
//
// An ExperimentSpec is declarative: instead of shipping Go code, a
// client names a workload from the server's registry and parameterizes
// it. The same spec is what a stored job (§3.1) holds. The canonical
// JSON shape:
//
//	{
//	  "node":     "node1",             // required: target vantage point
//	  "device":   "R58M12ABCDE",       // required: target device serial
//	  "workload": {                    // required: registry name + params
//	    "name":   "browser",
//	    "params": {"browser": "Brave", "pages": 3, "scrolls": 6}
//	  },
//	  "monitor": {                     // optional monitor configuration
//	    "sample_rate_hz":       1000,  // 0 = hardware max (5 kHz)
//	    "voltage_v":            0,     // 0 = battery nominal voltage
//	    "cpu_sample_period_ms": 1000,  // live-sample cadence (0 = 1 s)
//	    "padding_ms":           1000   // settle tail (0 = 1 s)
//	  },
//	  "mirroring":    false,           // §3.2 device mirroring
//	  "vpn_location": "",              // §4.3 VPN exit ("" = direct)
//	  "transport":    "wifi",          // "wifi" (default) | "bluetooth"
//	  "constraints":  {"require_low_cpu": false}
//	}
//
// A CampaignSpec is a batch of experiments submitted atomically; the
// server fans the runs out across vantage points through its scheduler
// (per-node/device locks serialize conflicting runs):
//
//	{
//	  "experiments":    [ <ExperimentSpec>, ... ],  // required, ≥ 1
//	  "max_concurrent": 0                           // 0 = no extra cap
//	}
//
// The builtin workload registry ships "browser" (params: browser,
// pages, scrolls, dwell_ms, scroll_gap_ms), "video" (params:
// duration_ms) and "idle" (params: duration_ms); GET /api/v1/workloads
// lists what a server actually offers.
package api

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Version is the wire protocol version this package speaks. Breaking
// schema changes bump it and mount under a new /api/v{n}/ prefix;
// additive changes (new optional fields, new endpoints) do not.
const Version = 1

// Transport strings accepted on the wire. The empty string selects
// WiFi, the paper's measurement-safe default.
const (
	TransportWiFi      = "wifi"
	TransportBluetooth = "bluetooth"
	TransportUSB       = "usb" // always rejected, with an explanatory error
)

// Params carries a workload's free-form parameters. JSON numbers decode
// as float64; the typed getters below tolerate that, so workload
// builders never touch the raw map.
type Params map[string]any

// String returns the string at key, or def when absent or not a string.
func (p Params) String(key, def string) string {
	if v, ok := p[key].(string); ok {
		return v
	}
	return def
}

// Int returns the integer at key, accepting JSON's float64 form, or def.
func (p Params) Int(key string, def int) int {
	switch v := p[key].(type) {
	case float64:
		return int(v)
	case int:
		return v
	}
	return def
}

// Float returns the number at key, or def.
func (p Params) Float(key string, def float64) float64 {
	switch v := p[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	return def
}

// Bool returns the bool at key, or def.
func (p Params) Bool(key string, def bool) bool {
	if v, ok := p[key].(bool); ok {
		return v
	}
	return def
}

// DurationMS interprets the number at key as milliseconds, or def.
func (p Params) DurationMS(key string, def time.Duration) time.Duration {
	switch v := p[key].(type) {
	case float64:
		return time.Duration(v) * time.Millisecond
	case int:
		return time.Duration(v) * time.Millisecond
	}
	return def
}

// StringSlice returns the string list at key (JSON arrays decode as
// []any), or nil when absent or mistyped.
func (p Params) StringSlice(key string) []string {
	raw, ok := p[key].([]any)
	if !ok {
		return nil
	}
	out := make([]string, 0, len(raw))
	for _, e := range raw {
		s, ok := e.(string)
		if !ok {
			return nil
		}
		out = append(out, s)
	}
	return out
}

// WorkloadSpec names a workload from the server's registry and carries
// its parameters. The registry replaces closure pipelines: every
// runnable workload is vetted code on the server, so declarative
// submissions skip the §3.1 admin pipeline-approval gate that guarded
// arbitrary Go closures.
type WorkloadSpec struct {
	Name   string `json:"name"`
	Params Params `json:"params,omitempty"`
}

// MonitorSpec configures the power monitor and the run's sampling
// cadences. Zero values select the server-side defaults documented on
// each field.
type MonitorSpec struct {
	// SampleRateHz is the Monsoon sampling rate (0 = hardware max).
	SampleRateHz int `json:"sample_rate_hz,omitempty"`
	// VoltageV is the monitor output voltage (0 = battery nominal).
	VoltageV float64 `json:"voltage_v,omitempty"`
	// CPUSamplePeriodMS is the live-sample/CPU-monitor cadence (0 = 1 s).
	CPUSamplePeriodMS int64 `json:"cpu_sample_period_ms,omitempty"`
	// PaddingMS holds the monitor running after the script (0 = 1 s).
	PaddingMS int64 `json:"padding_ms,omitempty"`
}

// ConstraintsSpec carries scheduler constraints beyond the implicit
// per-node/device locks.
type ConstraintsSpec struct {
	// RequireLowCPU defers dispatch until the controller CPU is below
	// the server's threshold (§4.2's optional condition).
	RequireLowCPU bool `json:"require_low_cpu,omitempty"`
	// AllowFallback lets the scheduler move the run to another online
	// vantage point (and one of its devices) when the named node is
	// dead, draining or removed — the campaign-survives-a-node-kill
	// policy. Off by default: measurements are usually pinned to the
	// exact device they were calibrated for.
	AllowFallback bool `json:"allow_fallback,omitempty"`
}

// ExperimentSpec is the declarative wire form of one measurement run.
// See the package comment for the JSON schema.
type ExperimentSpec struct {
	Node        string          `json:"node"`
	Device      string          `json:"device"`
	Workload    WorkloadSpec    `json:"workload"`
	Monitor     MonitorSpec     `json:"monitor,omitempty"`
	Mirroring   bool            `json:"mirroring,omitempty"`
	VPNLocation string          `json:"vpn_location,omitempty"`
	Transport   string          `json:"transport,omitempty"`
	Constraints ConstraintsSpec `json:"constraints,omitempty"`
	// HomeServer names the cluster peer submitting this spec through
	// the cross-server routing path (empty for direct client
	// submissions). The executing server echoes it on the build's wire
	// status as provenance.
	HomeServer string `json:"home_server,omitempty"`
}

// Validate checks the wire-level invariants that need no server state.
// Registry lookups and node/device existence are the server's job.
func (s *ExperimentSpec) Validate() error {
	if s.Node == "" {
		return errors.New("api: spec.node is required")
	}
	if s.Device == "" {
		return errors.New("api: spec.device is required")
	}
	if s.Workload.Name == "" {
		return errors.New("api: spec.workload.name is required")
	}
	switch s.Transport {
	case "", TransportWiFi, TransportBluetooth, TransportUSB:
	default:
		return fmt.Errorf("api: unknown transport %q (want %q or %q)",
			s.Transport, TransportWiFi, TransportBluetooth)
	}
	if s.Monitor.SampleRateHz < 0 {
		return fmt.Errorf("api: negative sample rate %d", s.Monitor.SampleRateHz)
	}
	if s.Monitor.VoltageV < 0 {
		return fmt.Errorf("api: negative voltage %v", s.Monitor.VoltageV)
	}
	if s.Monitor.CPUSamplePeriodMS < 0 || s.Monitor.PaddingMS < 0 {
		return errors.New("api: negative durations in monitor spec")
	}
	return nil
}

// CampaignSpec is the wire form of a measurement campaign: a batch of
// experiments scheduled together.
type CampaignSpec struct {
	Experiments []ExperimentSpec `json:"experiments"`
	// MaxConcurrent caps in-flight runs across the campaign (0 = only
	// the server's executor and per-node limits apply).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
}

// Validate checks the campaign's wire-level invariants, including every
// member experiment's.
func (c *CampaignSpec) Validate() error {
	if len(c.Experiments) == 0 {
		return errors.New("api: campaign needs at least one experiment")
	}
	if c.MaxConcurrent < 0 {
		return fmt.Errorf("api: negative max_concurrent %d", c.MaxConcurrent)
	}
	for i := range c.Experiments {
		if err := c.Experiments[i].Validate(); err != nil {
			return fmt.Errorf("experiments[%d]: %w", i, err)
		}
	}
	return nil
}

// SubmitResponse acknowledges an experiment submission.
type SubmitResponse struct {
	Build int    `json:"build"`
	State string `json:"state"`
}

// JobInfo is one stored job (§3.1) on the wire: the experiment spec its
// builds run, and whether an administrator has approved the current
// revision. PUT /api/v1/jobs/{name} takes a bare ExperimentSpec and
// answers with the JobInfo it produced.
type JobInfo struct {
	Name     string         `json:"name"`
	Owner    string         `json:"owner"`
	Spec     ExperimentSpec `json:"spec"`
	Approved bool           `json:"approved"`
	Revision int            `json:"revision"`
}

// RelaySink receives what a build relayed to a federation peer emits
// on its executing server — events and samples as they stream, then
// the terminal artifacts (traces, CPU CSVs) once the remote run
// succeeds — so the home server can replay them into the home build's
// feed and workspace. Artifact hands data over: the sink keeps the slice.
type RelaySink interface {
	Event(e BuildEvent)
	Sample(p SamplePoint)
	Artifact(name string, data []byte)
}

// CampaignResponse acknowledges a campaign submission. Builds is
// index-aligned with the submitted experiments.
type CampaignResponse struct {
	Campaign int   `json:"campaign"`
	Builds   []int `json:"builds"`
}

// CampaignStatus reports a campaign's member builds.
type CampaignStatus struct {
	Campaign int           `json:"campaign"`
	Builds   []BuildStatus `json:"builds"`
}

// NodeInfo describes one vantage point and its test devices.
type NodeInfo struct {
	Name    string   `json:"name"`
	Devices []string `json:"devices,omitempty"`
	// Health is the node's lifecycle state: "online", "suspect",
	// "offline" or "draining" (empty from pre-health servers).
	Health string `json:"health,omitempty"`
}

// Node health strings on the wire.
const (
	HealthOnline   = "online"
	HealthSuspect  = "suspect"
	HealthOffline  = "offline"
	HealthDraining = "draining"
)

// NodeDetail is one vantage point's full lifecycle snapshot
// (GET /api/v1/nodes/{name}).
type NodeDetail struct {
	Name    string   `json:"name"`
	Devices []string `json:"devices,omitempty"`
	Health  string   `json:"health"`
	// Monitored reports whether heartbeat tracking is armed; an
	// unmonitored node is always treated as online.
	Monitored bool `json:"monitored,omitempty"`
	Draining  bool `json:"draining,omitempty"`
	// LastHeartbeatNS is the server-clock time of the latest beat.
	LastHeartbeatNS int64 `json:"last_heartbeat_ns,omitempty"`
	// RunningBuilds counts builds currently leased to the node;
	// QueuedBuilds counts queued builds preferring it.
	RunningBuilds int `json:"running_builds"`
	QueuedBuilds  int `json:"queued_builds"`
}

// RunSummary is the server-side digest of a finished measurement —
// enough for dashboards that never fetch the full trace. Timestamps and
// durations are nanoseconds for lossless round-trips.
type RunSummary struct {
	Samples            int64   `json:"samples"`
	MeanMA             float64 `json:"mean_ma"`
	P50MA              float64 `json:"p50_ma"`
	P95MA              float64 `json:"p95_ma"`
	EnergyMAH          float64 `json:"energy_mah"`
	DurationNS         int64   `json:"duration_ns"`
	MirrorUploadBytes  int64   `json:"mirror_upload_bytes,omitempty"`
	DroppedLiveSamples int64   `json:"dropped_live_samples,omitempty"`
}

// Analytics field names a client may request via the analytics route's
// fields= parameter. An empty selection means all of them.
const (
	AnalyticsFieldMean      = "mean"
	AnalyticsFieldMinMax    = "minmax"
	AnalyticsFieldQuantiles = "quantiles"
	AnalyticsFieldEnergy    = "energy"
)

// AnalyticsQuery selects what GET /api/v1/builds/{id}/analytics
// computes. The zero value asks for whole-trace rollups of every field
// over the build's power trace.
type AnalyticsQuery struct {
	// WindowNS is the bucket width in nanoseconds; 0 disables bucketing
	// (rollup only).
	WindowNS int64
	// Fields restricts the computed aggregates to a subset of the
	// AnalyticsField* names; empty means all.
	Fields []string
	// Artifact names the stored trace to aggregate; empty means the
	// build's power trace ("current.trace").
	Artifact string
}

// AnalyticsBucket is one time bucket (or the whole-trace rollup) of
// server-side aggregates over a stored trace. Aggregate fields are
// pointers so unrequested fields — and statistics of a bucket whose
// every sample was invalid — are absent rather than zero or NaN (JSON
// has no NaN). Quantiles are P² streaming estimates, exact for ≤ 5
// samples; see internal/samples for the error envelope beyond that.
// Energy integrates only within-bucket sample pairs, so bucket
// energies sum to slightly less than the rollup's exact whole-trace
// integral (boundary-straddling spans belong to neither bucket).
type AnalyticsBucket struct {
	// StartNS and EndNS bound the bucket, nanoseconds since the trace's
	// first sample (EndNS exclusive). The rollup row spans the whole
	// trace.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Samples counts valid samples in the bucket; NaNs counts skipped
	// invalid ones. Empty buckets are omitted from the result entirely.
	Samples   int64    `json:"samples"`
	NaNs      int64    `json:"nans,omitempty"`
	MeanMA    *float64 `json:"mean_ma,omitempty"`
	MinMA     *float64 `json:"min_ma,omitempty"`
	MaxMA     *float64 `json:"max_ma,omitempty"`
	P50MA     *float64 `json:"p50_ma,omitempty"`
	P95MA     *float64 `json:"p95_ma,omitempty"`
	EnergyMAH *float64 `json:"energy_mah,omitempty"`
}

// AnalyticsResult is the analytics route's response: the query echoed
// back in resolved form, a whole-trace rollup, and one bucket per
// non-empty window when bucketing was requested.
type AnalyticsResult struct {
	BuildID  int    `json:"build_id"`
	Artifact string `json:"artifact"`
	// EpochNS is the trace's first sample timestamp, unix nanoseconds;
	// bucket offsets are relative to it.
	EpochNS    int64 `json:"epoch_ns"`
	DurationNS int64 `json:"duration_ns"`
	// WindowNS echoes the bucket width (0 = rollup only).
	WindowNS int64 `json:"window_ns,omitempty"`
	// Fields echoes the computed aggregate set, sorted.
	Fields []string `json:"fields"`
	// Total is the whole-trace rollup. Its EnergyMAH is the exact
	// trapezoidal integral of the full trace (bit-identical to the
	// capture-time summary).
	Total AnalyticsBucket `json:"total"`
	// Buckets holds the non-empty windows in time order; nil without
	// bucketing.
	Buckets []AnalyticsBucket `json:"buckets,omitempty"`
}

// BuildStatus reports one build over the wire. Canceled marks builds
// ended by an explicit cancel request and NodeLost marks builds failed
// by vantage-point loss — clients branch on these flags (never on the
// error message) to map failures onto their typed errors. The state
// "expired" marks a build whose record aged out of the retention
// window; only ID and State are meaningful then.
type BuildStatus struct {
	ID       int         `json:"id"`
	Job      string      `json:"job"`
	Owner    string      `json:"owner,omitempty"`
	State    string      `json:"state"`
	Campaign int         `json:"campaign,omitempty"`
	Canceled bool        `json:"canceled,omitempty"`
	NodeLost bool        `json:"node_lost,omitempty"`
	Error    string      `json:"error,omitempty"`
	Summary  *RunSummary `json:"summary,omitempty"`
	// Node is where the current/last attempt ran — after a fallback
	// placement it differs from the submitted spec's node.
	Node string `json:"node,omitempty"`
	// Attempts counts dispatches (2+ means the build failed over).
	Attempts int `json:"attempts,omitempty"`
	// PendingReason explains why a queued build is not running yet.
	PendingReason string `json:"pending_reason,omitempty"`
	// PlacementScore is the scheduler's placer score for the
	// current/last placement — comparable across builds under one
	// scoring policy, useful for telling "best node" from "only node".
	PlacementScore float64 `json:"placement_score,omitempty"`
	// DroppedEvents and DroppedSamples count records the build's bounded
	// feed buffers shed under backpressure: a non-zero value tells a
	// streaming client its replay is lossy rather than letting it trust
	// a silently truncated stream.
	DroppedEvents  int64 `json:"dropped_events,omitempty"`
	DroppedSamples int64 `json:"dropped_samples,omitempty"`
	// Recovered marks state reconstructed from the server's WAL+snapshot
	// store after a restart: status fields are authoritative, but the
	// feed replay starts over (pre-crash events and samples are gone)
	// and a build that was mid-run at the crash went through a failover
	// requeue.
	Recovered bool `json:"recovered,omitempty"`
	// FeedEpoch counts how many times the build's event/sample feed
	// started over (once per server recovery). A streaming client that
	// sees the epoch move knows its resume cursors — and any client-side
	// aggregate built from the feed — belong to an abandoned attempt and
	// must reset, even across multiple restarts.
	FeedEpoch int `json:"feed_epoch,omitempty"`
	// RoutedVia names the federated peer this build was routed to: the
	// run executes on a vantage point owned by that peer, and events,
	// samples and the summary are relayed back. Empty for builds that
	// run on the serving server's own nodes.
	RoutedVia string `json:"routed_via,omitempty"`
	// HomeServer names the cluster peer that owns this build's record —
	// set on builds another server submitted here through the
	// cross-server routing path, so an operator reading this server's
	// build list can trace a routed run back to where it was submitted.
	HomeServer string `json:"home_server,omitempty"`
	// The build's timeline on the server's clock, in Unix nanoseconds:
	// submitted, dispatched (the latest attempt) and finished. Zero, and
	// omitted, until the build gets there.
	QueuedAtNS   int64 `json:"queued_at_ns,omitempty"`
	StartedAtNS  int64 `json:"started_at_ns,omitempty"`
	FinishedAtNS int64 `json:"finished_at_ns,omitempty"`
}

// BearerToken extracts the access token from a request's Authorization
// header: what follows "Bearer ", or the header verbatim when it has no
// such prefix (a bare token authenticates too). Empty when absent.
func BearerToken(r *http.Request) string {
	tok := r.Header.Get("Authorization")
	if rest, ok := strings.CutPrefix(tok, "Bearer "); ok && rest != "" {
		return rest
	}
	return tok
}

// StateExpired is the BuildStatus.State of a tombstoned build.
const StateExpired = "expired"

// Terminal reports whether the build has left the queued/running
// states for good: it settled (success, failure, aborted) or its record
// expired. What an expired build means is the caller's call.
func (s BuildStatus) Terminal() bool {
	switch s.State {
	case "success", "failure", "aborted", StateExpired:
		return true
	}
	return false
}

// EventFailover is the BuildEvent.Phase of a scheduler failover
// record: the build's node was lost and the build is being requeued
// (or failed, once the retry budget is spent). Error carries the
// reason. It is not an experiment phase; clients that only understand
// experiment phases skip it.
const EventFailover = "failover"

// BuildEvent is one phase-transition record on the NDJSON event stream
// (GET /api/v1/builds/{id}/events). Seq is a per-build cursor: a client
// that reconnects resumes from its last seen Seq + 1 via ?from=.
type BuildEvent struct {
	Seq    int    `json:"seq"`
	Build  int    `json:"build"`
	Node   string `json:"node"`
	Device string `json:"device"`
	Phase  string `json:"phase"`
	Step   string `json:"step,omitempty"`
	AtNS   int64  `json:"at_ns"`
	Error  string `json:"error,omitempty"`
}

// SamplePoint is one live power reading on the sample stream: the
// device's instantaneous draw plus the monitor-side streaming summary
// of the capture so far. The NDJSON form carries every field; the
// binary frame form (see stream.go) carries the (at_ns, current_ma)
// series through the compact trace codec.
type SamplePoint struct {
	AtNS      int64   `json:"at_ns"`
	CurrentMA float64 `json:"current_ma"`
	N         int64   `json:"n,omitempty"`
	MeanMA    float64 `json:"mean_ma,omitempty"`
	P50MA     float64 `json:"p50_ma,omitempty"`
	P95MA     float64 `json:"p95_ma,omitempty"`
	IntegralS float64 `json:"integral_s,omitempty"`
}

// PeerNode is one vantage point a federated peer advertises in its
// heartbeat census: enough for the receiving scheduler to treat it as a
// placement candidate without owning a handle to it.
type PeerNode struct {
	Name    string   `json:"name"`
	Health  string   `json:"health"`
	Devices []string `json:"devices,omitempty"`
	// Running counts builds currently leased to the node on its home
	// server — the queue-depth input to remote placement scoring.
	Running int `json:"running"`
}

// PeerAnnounce is the body of POST /api/v1/cluster/peers: one server
// announcing (or re-announcing — the same message is the heartbeat) its
// membership to another, carrying its current node census. Auth is the
// shared cluster token in the Authorization header, not a user token.
type PeerAnnounce struct {
	// Name is the announcing server's cluster-unique name.
	Name string `json:"name"`
	// URL is the base URL where the announcing server's v1 API is
	// reachable by its peers.
	URL string `json:"url"`
	// Nodes is the announcing server's current node census.
	Nodes []PeerNode `json:"nodes,omitempty"`
}

// PeerStatus is one peer's entry in the cluster view.
type PeerStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// State is the peer's heartbeat-derived lifecycle state: "online",
	// "suspect" or "offline" — the same model nodes use.
	State string `json:"state"`
	// LastHeartbeatNS is the receiving server's clock time of the last
	// announce from this peer.
	LastHeartbeatNS int64 `json:"last_heartbeat_ns,omitempty"`
	// Nodes is the census the peer advertised on its last heartbeat.
	Nodes []PeerNode `json:"nodes,omitempty"`
}

// ClusterView is GET /api/v1/cluster's response — and the body of an
// announce response, so a joining server learns the mesh (including
// peers it has never spoken to) from its first announce.
type ClusterView struct {
	// Self names the responding server.
	Self string `json:"self"`
	// URL is the responding server's advertised base URL.
	URL   string       `json:"url,omitempty"`
	Peers []PeerStatus `json:"peers,omitempty"`
}

// ErrorCode classifies a v1 API failure. Codes — not messages — are the
// contract clients branch on.
type ErrorCode string

// Error codes, each with a canonical HTTP status.
const (
	CodeBadRequest   ErrorCode = "bad_request"  // 400: malformed JSON, invalid spec
	CodeUnauthorized ErrorCode = "unauthorized" // 401: missing/unknown token
	CodeForbidden    ErrorCode = "forbidden"    // 403: role lacks the permission
	CodeNotFound     ErrorCode = "not_found"    // 404: unknown build/job/node/device
	CodeConflict     ErrorCode = "conflict"     // 409: duplicate job, unapproved revision
	CodeInternal     ErrorCode = "internal"     // 500: everything else
	// CodeInsufficientCredits is the §5 credit economy's rejection: the
	// member's ledger balance cannot cover the submission (402).
	CodeInsufficientCredits ErrorCode = "insufficient_credits"
	// CodeOverloaded is admission control's rejection (429): the owner
	// is over their in-flight cap, or the queue crossed the shed
	// watermark. The envelope's ShedReason says which.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeInvalidCursor rejects a malformed ?from= resume cursor on the
	// streaming routes (400). Typed separately from bad_request so a
	// reconnecting client can tell "my cursor is garbage, restart from
	// 0" from "my request is malformed".
	CodeInvalidCursor ErrorCode = "invalid_cursor"
	// CodePeerUnavailable is a cross-server routing failure (503): the
	// submission targets a vantage point owned by a federated peer that
	// is currently suspect, offline or unreachable. Responses carry a
	// Retry-After header; the condition is transient by definition, so
	// client retry policy applies.
	CodePeerUnavailable ErrorCode = "peer_unavailable"
	// CodeNotRelayed is a feed gateway's typed refusal (501): the
	// requested v1 route exists on a full access server but is not one
	// the stateless gateway relays. Distinct from not_found so clients
	// know to re-aim at the control server rather than conclude the
	// resource is gone.
	CodeNotRelayed ErrorCode = "not_relayed"
)

// Error is the typed error envelope every non-2xx v1 response carries:
//
//	{"error": {"code": "not_found", "message": "no build 42"}}
//
// It implements error, so clients can return it directly; use Is/As or
// the Code field to branch.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// ShedReason qualifies CodeOverloaded rejections with the machine-
	// readable cause ("owner_cap" or "queue_watermark") so clients can
	// tell per-tenant throttling from fleet saturation.
	ShedReason string `json:"shed_reason,omitempty"`
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// HTTPStatus maps the code to its canonical HTTP status.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeInvalidCursor:
		return http.StatusBadRequest
	case CodeUnauthorized:
		return http.StatusUnauthorized
	case CodeForbidden:
		return http.StatusForbidden
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodeInsufficientCredits:
		return http.StatusPaymentRequired
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodePeerUnavailable:
		return http.StatusServiceUnavailable
	case CodeNotRelayed:
		return http.StatusNotImplemented
	default:
		return http.StatusInternalServerError
	}
}

// CodeForStatus inverts HTTPStatus for clients that receive a bare
// status with no parseable envelope.
func CodeForStatus(status int) ErrorCode {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusUnauthorized:
		return CodeUnauthorized
	case http.StatusForbidden:
		return CodeForbidden
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusPaymentRequired:
		return CodeInsufficientCredits
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case http.StatusServiceUnavailable:
		return CodePeerUnavailable
	case http.StatusNotImplemented:
		return CodeNotRelayed
	default:
		return CodeInternal
	}
}

// Envelope is the JSON wrapper error responses use.
type Envelope struct {
	Error *Error `json:"error"`
}
