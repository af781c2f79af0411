package accessserver

import (
	"context"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"

	"batterylab/internal/accessserver/cluster"
	"batterylab/internal/metrics"
	"batterylab/internal/simclock"
)

// Observability: the server's metrics registry and the scheduler
// collector that makes its counters reconcile.
//
// Two disciplines coexist here. Hot-path counters that stand alone
// (feed drops, heartbeats, credit movements) are registry atomics —
// one uncontended atomic add per event. Scheduler lifecycle counters
// are plain int64 fields mutated ONLY under s.mu, exactly where the
// state they describe mutates, and emitted by a single collector that
// takes s.mu at snapshot time: every snapshot therefore satisfies
//
//	builds_submitted_total == queue depth + running
//	                          + Σ builds_finished_total{result=…}
//
// with no torn intermediate states, which is what makes the metrics
// trustworthy for reconciliation, not just for trending.

// serverMetrics bundles the server's instrumentation.
type serverMetrics struct {
	reg *metrics.Registry

	// Scheduler lifecycle counters — guarded by s.mu (not atomics; see
	// the file comment). queued includes builds sitting in a failover
	// backoff window, which are state-queued but not in s.queue.
	submitted        int64
	dispatched       int64
	queued           int64
	succeeded        int64
	failed           int64
	aborted          int64
	leaseBreaks      int64
	failoverRequeues int64
	agedOut          int64
	campaigns        int64
	shedOwnerCap     int64
	shedWatermark    int64
	// Federation lifecycle counters, same s.mu discipline: clusterRouted
	// counts claims placed on a peer's vantage point, clusterPeerLost
	// counts routed builds reclaimed from a lost peer.
	clusterRouted   int64
	clusterPeerLost int64
	// What the drain pass spends, same discipline: drainVisits counts the
	// queued builds it examined, placementEvals the placements it computed
	// for them (judgeLocked) — every other visit reused a class's verdict.
	drainVisits    int64
	placementEvals int64

	// dispatchLatency observes submit→running wait in seconds, on the
	// server clock (virtual-clock deterministic).
	dispatchLatency *metrics.Histogram

	// Feed counters, shared across every build's feed (producer-side
	// atomics; see feedCounters).
	feeds feedCounters

	// Streaming subscriber gauges (HTTP handler side). feedSubscribers
	// is the combined gauge (events + samples) the stats digest and
	// capacity dashboards key on; the per-stream gauges break it down.
	feedSubscribers   *metrics.Gauge
	eventSubscribers  *metrics.Gauge
	sampleSubscribers *metrics.Gauge

	heartbeats *metrics.Counter

	// Federation announce loop (its own goroutine-free tick; registry
	// atomics, not s.mu).
	clusterAnnounces      *metrics.Counter
	clusterAnnounceErrors *metrics.Counter

	// HTTP middleware.
	httpInFlight *metrics.Gauge
	reqSeq       atomic.Uint64

	// Durability. appendErrors is guarded by storeMu like the latch it
	// counts; the latency histograms are self-locking.
	appendErrors     int64
	walAppendLatency *metrics.Histogram
	fsyncLatency     *metrics.Histogram
	snapshotLatency  *metrics.Histogram

	// Credits.
	creditDenials  *metrics.Counter
	runsCharged    *metrics.Counter
	creditsDebited *metrics.FloatCounter

	// Analytics route: end-to-end query latency (cache hits included)
	// and result-cache effectiveness.
	analyticsLatency *metrics.Histogram
	analyticsHits    *metrics.Counter
	analyticsMisses  *metrics.Counter
}

// feedCounters is the server-wide view of the bounded feed buffers:
// every build's feed shares these, so fleet-level drop rates come from
// one place instead of a scan over all builds. It implements
// feedhub.Stats, wiring the hub's per-feed ticks into the registry;
// the methods touch only lock-free registry atomics, honoring the
// hub's no-locks-held rule for stats sinks.
type feedCounters struct {
	eventsPosted   *metrics.Counter
	samplesPosted  *metrics.Counter
	eventsDropped  *metrics.Counter
	samplesDropped *metrics.Counter
}

func (c *feedCounters) EventPosted()   { c.eventsPosted.Inc() }
func (c *feedCounters) EventDropped()  { c.eventsDropped.Inc() }
func (c *feedCounters) SamplePosted()  { c.samplesPosted.Inc() }
func (c *feedCounters) SampleDropped() { c.samplesDropped.Inc() }

// newServerMetrics builds the registry and registers the collectors.
// Called once from New, after the scheduler maps exist.
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:             reg,
		dispatchLatency: reg.Histogram("blab_dispatch_latency_seconds", "submit-to-running wait per dispatched build"),
		feeds: feedCounters{
			eventsPosted:   reg.Counter("blab_feed_events_posted_total", "phase events accepted into build feeds"),
			samplesPosted:  reg.Counter("blab_feed_samples_posted_total", "live samples accepted into build feeds"),
			eventsDropped:  reg.Counter("blab_feed_events_dropped_total", "phase events shed by full or closed feed buffers"),
			samplesDropped: reg.Counter("blab_feed_samples_dropped_total", "live samples shed by full or closed feed buffers"),
		},
		feedSubscribers:   reg.Gauge("blab_feed_subscribers", "open streaming connections (events + samples)"),
		eventSubscribers:  reg.Gauge("blab_feed_event_subscribers", "open event-stream connections"),
		sampleSubscribers: reg.Gauge("blab_feed_sample_subscribers", "open sample-stream connections"),
		heartbeats:        reg.Counter("blab_node_heartbeats_total", "liveness beats recorded"),
		clusterAnnounces:  reg.Counter("blab_cluster_announces_total", "peer announces delivered"),
		clusterAnnounceErrors: reg.Counter("blab_cluster_announce_errors_total",
			"peer announces that failed (unreachable peer, bad token)"),
		httpInFlight:     reg.Gauge("blab_http_in_flight", "HTTP requests currently being served"),
		walAppendLatency: reg.Histogram("blab_wal_append_seconds", "WAL write latency, one write per critical section that logged (wall time)"),
		fsyncLatency:     reg.Histogram("blab_wal_fsync_seconds", "WAL group-commit fsync latency (wall time)"),
		snapshotLatency:  reg.Histogram("blab_store_snapshot_seconds", "snapshot compaction duration (wall time)"),
		creditDenials:    reg.Counter("blab_credit_denials_total", "submissions rejected by the credit gate"),
		runsCharged:      reg.Counter("blab_credit_runs_charged_total", "finished runs debited for device time"),
		creditsDebited:   reg.FloatCounter("blab_credits_debited_total", "credits debited for consumed device time"),
		analyticsLatency: reg.Histogram("blab_analytics_query_seconds", "analytics query latency, cache hits included (wall time)"),
		analyticsHits:    reg.Counter("blab_analytics_cache_hits_total", "analytics queries answered from the result cache"),
		analyticsMisses:  reg.Counter("blab_analytics_cache_misses_total", "analytics queries that computed a fresh result"),
	}
	reg.Collect(s.collectScheduler)
	reg.Collect(s.collectStore)
	return m
}

// pendingCategory folds the scheduler's free-text skip reasons into a
// bounded label set, so the pending-reason gauge cannot explode
// cardinality with node names and percentages.
func pendingCategory(reason string) string {
	switch {
	case reason == "":
		return "next_in_line"
	// "waiting for a free executor" must fold before the generic
	// "waiting for " lock_wait prefix below.
	case reason == "waiting for a free executor":
		return "executor_wait"
	case strings.Contains(reason, "campaign concurrency"):
		return "campaign_cap"
	case strings.Contains(reason, "fair-share cap"):
		return "owner_cap"
	case strings.Contains(reason, "probing controller CPU"):
		return "cpu_probe"
	case strings.Contains(reason, "controller CPU"):
		return "cpu_gate"
	case strings.HasPrefix(reason, "waiting for node ") && strings.Contains(reason, "to register"),
		strings.Contains(reason, "was removed"),
		strings.Contains(reason, "node ") && strings.Contains(reason, " is "):
		return "node_unavailable"
	case strings.HasPrefix(reason, "waiting for "):
		return "lock_wait"
	case strings.Contains(reason, "; retry "):
		return "retry_backoff"
	default:
		return "other"
	}
}

// pendingCategories is the full label set, emitted every snapshot
// (zeros included) so scrapes see stable series.
var pendingCategories = []string{
	"next_in_line", "executor_wait", "campaign_cap", "owner_cap",
	"cpu_probe", "cpu_gate",
	"node_unavailable", "lock_wait", "retry_backoff", "other",
}

// collectScheduler emits the scheduler's lifecycle counters and derived
// gauges under s.mu — the one lock all of them mutate under — so each
// snapshot is internally consistent.
func (s *Server) collectScheduler(e *metrics.Emitter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.m

	e.Counter("blab_builds_submitted_total", "builds accepted into the queue", float64(m.submitted))
	e.Counter("blab_builds_dispatched_total", "queue-to-executor dispatches", float64(m.dispatched))
	e.Counter("blab_builds_finished_total", "terminal build transitions by result",
		float64(m.succeeded), metrics.Label{Name: "result", Value: "success"})
	e.Counter("blab_builds_finished_total", "terminal build transitions by result",
		float64(m.failed), metrics.Label{Name: "result", Value: "failure"})
	e.Counter("blab_builds_finished_total", "terminal build transitions by result",
		float64(m.aborted), metrics.Label{Name: "result", Value: "aborted"})
	e.Counter("blab_scheduler_lease_breaks_total", "running builds reclaimed from lost nodes", float64(m.leaseBreaks))
	e.Counter("blab_scheduler_failover_requeues_total", "lease breaks that requeued within the retry budget", float64(m.failoverRequeues))
	e.Counter("blab_scheduler_aged_out_total", "queued builds failed by the pending timeout", float64(m.agedOut))
	e.Counter("blab_campaigns_submitted_total", "campaigns accepted", float64(m.campaigns))
	e.Counter("blab_admission_shed_total", "submissions shed by admission control",
		float64(m.shedOwnerCap), metrics.Label{Name: "reason", Value: ShedOwnerCap})
	e.Counter("blab_admission_shed_total", "submissions shed by admission control",
		float64(m.shedWatermark), metrics.Label{Name: "reason", Value: ShedQueueWatermark})

	e.Gauge("blab_queue_depth", "builds in state queued (including failover backoff)", float64(m.queued))
	e.Gauge("blab_queue_dispatchable", "builds in the dispatch scan queue", float64(len(s.queue)))
	e.Gauge("blab_builds_running", "builds holding an executor", float64(s.running))
	e.Gauge("blab_executors", "configured executor cap", float64(s.cfg.Executors))
	e.Gauge("blab_builds_tracked", "build records held in memory (retention window)", float64(len(s.builds)))
	e.Gauge("blab_jobs", "stored pipelines", float64(len(s.jobs)))

	// Pending-reason breakdown of the dispatch queue.
	pending := map[string]int{}
	for _, b := range s.queue {
		pending[pendingCategory(b.PendingReason())]++
	}
	for _, cat := range pendingCategories {
		e.Gauge("blab_queue_pending", "queued builds by wait reason",
			float64(pending[cat]), metrics.Label{Name: "reason", Value: cat})
	}

	// Node health census.
	now := s.clock.Now()
	health := map[Health]int{}
	monitored := 0
	for _, rec := range s.nodeRecs {
		health[s.healthLocked(rec, now)]++
		if rec.Monitored {
			monitored++
		}
	}
	for _, h := range []Health{HealthOnline, HealthSuspect, HealthOffline, HealthDraining} {
		e.Gauge("blab_nodes", "tracked vantage points by health state",
			float64(health[h]), metrics.Label{Name: "state", Value: h.String()})
	}
	e.Gauge("blab_nodes_monitored", "vantage points with heartbeat tracking armed", float64(monitored))

	// Federation census. Peer state derives from the registry's lock-free
	// snapshot (a leaf read — the cluster registry never takes s.mu).
	e.Counter("blab_cluster_builds_routed_total", "builds dispatched to a federated peer's vantage point", float64(m.clusterRouted))
	e.Counter("blab_cluster_peer_losses_total", "routed builds reclaimed from a lost peer", float64(m.clusterPeerLost))
	peerStates := map[cluster.State]int{}
	for _, p := range s.cluster.Peers() {
		if st, _, ok := s.cluster.PeerState(p.Name, now); ok {
			peerStates[st]++
		}
	}
	for _, st := range []cluster.State{cluster.StateOnline, cluster.StateSuspect, cluster.StateOffline} {
		e.Gauge("blab_cluster_peers", "federated peers by heartbeat state",
			float64(peerStates[st]), metrics.Label{Name: "state", Value: st.String()})
	}

	// Lock-domain telemetry: total scheduler-lock acquisitions. Paired
	// with blab_feed_subscribers it answers "are status polls and
	// streaming reads staying off the dispatch lock" in production the
	// same way the lock-isolation test asserts it in CI.
	e.Counter("blab_sched_lock_acquisitions_total", "scheduler mutex acquisitions", float64(s.mu.acquisitions.Load()))
	// Drain cost as counts: evals/visits is the share of visits a class
	// verdict did not cover, visits/dispatched the depth of the blocked
	// prefix a finish walks.
	e.Counter("blab_sched_drain_visits_total", "queued builds examined by drain passes", float64(m.drainVisits))
	e.Counter("blab_sched_placement_evals_total", "placements computed by drain passes (other visits reused their class's verdict)", float64(m.placementEvals))
}

// collectStore emits durability metrics under storeMu, consistent with
// the latch state.
func (s *Server) collectStore(e *metrics.Emitter) {
	s.storeMu.Lock()
	attached := s.store != nil
	failed := s.storeFailed
	appendErrors := s.m.appendErrors
	var appends, appendBytes, snapBytes, gen float64
	if attached {
		appends = float64(s.store.TotalAppends())
		appendBytes = float64(s.store.TotalAppendBytes())
		snapBytes = float64(s.store.LastSnapshotBytes())
		gen = float64(s.store.Generation())
	}
	s.storeMu.Unlock()

	e.Gauge("blab_store_attached", "1 when a durable store is attached", b2f(attached))
	e.Gauge("blab_store_durable", "1 while WAL appends are accepted (0 after the failure latch)", b2f(attached && !failed))
	e.Counter("blab_wal_appends_total", "records appended to the WAL", appends)
	e.Counter("blab_wal_append_bytes_total", "payload bytes appended to the WAL", appendBytes)
	e.Counter("blab_wal_append_errors_total", "WAL append or fsync failures (each latches durability off)", float64(appendErrors))
	e.Gauge("blab_store_snapshot_bytes", "size of the last written snapshot", snapBytes)
	e.Gauge("blab_wal_generation", "WAL generation (bumps per compaction)", gen)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// MetricsSnapshot captures the registry — every registered metric plus
// the scheduler and store collectors' consistent views.
func (s *Server) MetricsSnapshot() metrics.Snapshot { return s.m.reg.Snapshot() }

// MetricsRegistry exposes the registry for embedding layers that want
// to add their own series to the same endpoint.
func (s *Server) MetricsRegistry() *metrics.Registry { return s.m.reg }

// SetLogger installs the structured logger the HTTP middleware and
// stats flusher write to. Safe to call at any time; the default
// discards.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	s.logger.Store(l)
}

// slogger returns the active structured logger (never nil).
func (s *Server) slogger() *slog.Logger {
	if l := s.logger.Load(); l != nil {
		return l
	}
	return slog.New(slog.DiscardHandler)
}

// StartStatsFlush arms a periodic digest of the key fleet metrics to
// the structured log, on the server clock. It is opt-in (the daemon
// arms it; tests and libraries that want no timers do not), and the
// returned stop function disarms it.
func (s *Server) StartStatsFlush(period time.Duration) (stop func()) {
	t := simclock.NewTicker(s.clock, period, func(time.Time) { s.FlushStats() })
	return t.Stop
}

// FlushStats logs a one-line digest of the fleet's health: scheduler
// throughput and latency, feed pressure, WAL volume.
func (s *Server) FlushStats() {
	snap := s.m.reg.Snapshot()
	get := func(name string, labels ...metrics.Label) float64 {
		mv, _ := snap.Get(name, labels...)
		return mv.Value
	}
	var p50, p99 float64
	if mv, ok := snap.Get("blab_dispatch_latency_seconds"); ok && mv.Hist != nil {
		p50, p99 = mv.Hist.P50, mv.Hist.P99
	}
	var bytesPerRecord float64
	if appends := get("blab_wal_appends_total"); appends > 0 {
		bytesPerRecord = get("blab_wal_append_bytes_total") / appends
	}
	var analyticsHitRate float64
	hits := get("blab_analytics_cache_hits_total")
	if total := hits + get("blab_analytics_cache_misses_total"); total > 0 {
		analyticsHitRate = hits / total
	}
	s.slogger().LogAttrs(context.Background(), slog.LevelInfo, "stats",
		slog.Int64("submitted", int64(get("blab_builds_submitted_total"))),
		slog.Int64("dispatched", int64(get("blab_builds_dispatched_total"))),
		slog.Int64("queued", int64(get("blab_queue_depth"))),
		slog.Int64("running", int64(get("blab_builds_running"))),
		slog.Int64("succeeded", int64(get("blab_builds_finished_total", metrics.Label{Name: "result", Value: "success"}))),
		slog.Int64("failed", int64(get("blab_builds_finished_total", metrics.Label{Name: "result", Value: "failure"}))),
		slog.Float64("dispatch_p50_s", p50),
		slog.Float64("dispatch_p99_s", p99),
		slog.Int64("feed_subscribers", int64(get("blab_feed_subscribers"))),
		slog.Int64("event_subscribers", int64(get("blab_feed_event_subscribers"))),
		slog.Int64("sample_subscribers", int64(get("blab_feed_sample_subscribers"))),
		slog.Int64("feed_events_dropped", int64(get("blab_feed_events_dropped_total"))),
		slog.Int64("feed_samples_dropped", int64(get("blab_feed_samples_dropped_total"))),
		slog.Int64("wal_appends", int64(get("blab_wal_appends_total"))),
		slog.Float64("wal_bytes_per_record", bytesPerRecord),
		slog.Float64("analytics_hit_rate", analyticsHitRate),
		slog.Int64("heartbeats", int64(get("blab_node_heartbeats_total"))),
	)
}
