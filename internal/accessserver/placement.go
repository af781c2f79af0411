package accessserver

import (
	"strings"
	"time"
)

// Score-based placement. Fallback builds used to land on the first
// free online node in sorted order; at fleet scale that piles work on
// whichever node sorts first and ignores everything the health
// subsystem already knows. The placer instead ranks every eligible
// (node, device) pair with a score built from the per-node performance
// indicators the server tracks — queue depth, device-model match,
// health state, and historical reliability (flap/failover counts) —
// the "sector performance indicator" approach of the paper's
// operational siblings. Ties break deterministically (higher score,
// then node name, then device serial), so virtual-clock runs stay
// bit-reproducible.

// PlacementCandidate is one (node, device) pair the placer scores.
// All telemetry fields come from the scheduler's nodeRec under s.mu.
type PlacementCandidate struct {
	// Node and Device identify the candidate pair.
	Node   string
	Device string
	// Peer names the federation peer advertising the node, or "" for a
	// node attached to this server. Remote candidates carry the census
	// the peer exchanged on its last heartbeat: Health, Running and
	// Device come from the advertisement, while the reliability fields
	// (flaps, failovers) stay zero — this server has no local telemetry
	// for a remote vantage point.
	Peer string
	// Health is the node's lifecycle state at scoring time. Only
	// online nodes are offered to the placer today, but the field is
	// part of the contract so a future policy can rank suspects.
	Health Health
	// Running counts builds currently leased to the node — its queue
	// depth. Claims made earlier in the same batch pass are included,
	// so one pass spreads load instead of stacking it.
	Running int
	// ModelMatch reports whether the candidate device's model matches
	// the requested device's model (see DeviceModel).
	ModelMatch bool
	// RecentFlap reports whether the node returned from a
	// suspect/offline silence within the recent-flap window
	// (Config.OfflineAfter): online, but not yet trusted.
	RecentFlap bool
	// Flaps counts lifetime returns from silence; Failovers counts
	// builds the scheduler reclaimed from this node. Both come from
	// the health subsystem's per-node telemetry.
	Flaps     int64
	Failovers int64
}

// Placer ranks placement candidates. Higher scores win; the scheduler
// breaks score ties by node name then device serial. Implementations
// must be pure functions of the candidate — placement happens under
// the scheduler lock and determinism depends on it.
type Placer interface {
	Score(c PlacementCandidate) float64
}

// ScoreWeights parameterizes the default placer. All weights are
// penalties-per-unit except ModelMatch, a flat bonus.
type ScoreWeights struct {
	// QueueDepth is the penalty per build already leased to the node.
	QueueDepth float64
	// ModelMatch is the bonus when the candidate device's model
	// matches the requested device's model.
	ModelMatch float64
	// RecentFlap is the penalty for a node that came back from
	// silence within the last offline window (online > recently-
	// suspect).
	RecentFlap float64
	// Flap is the penalty per lifetime flap (return from silence).
	Flap float64
	// Failover is the penalty per build reclaimed from the node.
	Failover float64
	// Remote is the flat penalty for a candidate advertised by a
	// federation peer rather than attached locally: relaying costs a
	// network hop and a failover domain, so a local node with a build or
	// two queued still beats an idle remote one.
	Remote float64
}

// DefaultScoreWeights is the shipped policy: queue depth dominates
// (an idle flaky node still beats a deeply backed-up reliable one for
// short runs), failovers outweigh flaps (a flap costs a beat window, a
// failover costs a whole rerun), and a model-matched device outranks
// reliability noise but never a whole queue position.
func DefaultScoreWeights() ScoreWeights {
	return ScoreWeights{
		QueueDepth: 10,
		ModelMatch: 5,
		RecentFlap: 8,
		Flap:       1,
		Failover:   4,
		Remote:     15,
	}
}

// WeightedPlacer is the default Placer: a linear score over the
// candidate's telemetry with ScoreWeights coefficients.
type WeightedPlacer struct {
	W ScoreWeights
}

// Score implements Placer. Monotonic by construction: with all else
// equal, more running builds, more flaps, more failovers, or a recent
// flap strictly lower the score, and a model match strictly raises it
// (given positive weights).
func (p WeightedPlacer) Score(c PlacementCandidate) float64 {
	s := -p.W.QueueDepth * float64(c.Running)
	if c.ModelMatch {
		s += p.W.ModelMatch
	}
	if c.RecentFlap {
		s -= p.W.RecentFlap
	}
	s -= p.W.Flap * float64(c.Flaps)
	s -= p.W.Failover * float64(c.Failovers)
	if c.Peer != "" {
		s -= p.W.Remote
	}
	return s
}

// DeviceModel extracts the model prefix of a device serial: the part
// before the first '-', or the whole serial when it has none. The
// fleet's serials are conventionally "model-unit" ("pixel4-a3"), so
// fallback placement can prefer a device of the same model as the one
// the experiment was calibrated for.
func DeviceModel(serial string) string {
	if i := strings.IndexByte(serial, '-'); i >= 0 {
		return serial[:i]
	}
	return serial
}

// SetPlacer swaps the placement scorer at runtime (nil restores the
// default WeightedPlacer). Takes effect on the next dispatch pass: no
// score outlives one — a pinned verdict carries none, every other
// verdict dies with its pass.
func (s *Server) SetPlacer(p Placer) {
	if p == nil {
		p = WeightedPlacer{W: DefaultScoreWeights()}
	}
	s.mu.Lock()
	s.placer = p
	s.mu.Unlock()
}

// candidateLocked assembles the scored view of one (node, device)
// pair. Callers hold s.mu.
func (s *Server) candidateLocked(rec *nodeRec, device, wantDevice string, now time.Time) PlacementCandidate {
	c := PlacementCandidate{
		Node:    rec.Name,
		Device:  device,
		Health:  s.healthLocked(rec, now),
		Running: s.sched.Node(rec.Name).Running,
		Flaps:   rec.flaps,
	}
	c.Failovers = rec.failovers
	if wantDevice != "" && device != "" {
		c.ModelMatch = DeviceModel(device) == DeviceModel(wantDevice)
	}
	if !rec.lastFlap.IsZero() && now.Sub(rec.lastFlap) < s.cfg.OfflineAfter {
		c.RecentFlap = true
	}
	return c
}
