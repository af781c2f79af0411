// Command blab-access runs the BatteryLab access server daemon: the
// multi-user v1 remote-execution API (HTTPS-terminated upstream in
// deployment) plus secure channels to remote vantage points.
//
// On start it creates an admin and an experimenter user, prints their
// API tokens and the server's client public key (which each controller
// must -authorize), hosts -sim simulated vantage points in-process (so
// `blab-run -server` measurements work end to end on the real clock),
// and connects to every vantage point listed via -node.
//
// Usage:
//
//	blab-access -http 127.0.0.1:9090 -sim 2
//	blab-access -http 127.0.0.1:9090 -node node1=127.0.0.1:2222
//	blab-access -sim 3 -flaky node2=30s/2m
//	blab-access -sim 2 -data /var/lib/batterylab   # durable: survives restarts
//	blab-access -sim 2 -data ./state -credits      # + §5 credit economy
//	blab-access -http :9091 -feedgw http://control:9090   # feed gateway
//	blab-access -http :9092 -sim 1 -cluster-name lab-eu \
//	    -cluster-token s3cret -peer http://control:9090   # federate
//
// With -cluster-token (plus -peer seeds) the server federates: it
// announces itself and its node census to the listed peers on every
// heartbeat, adopts the peers it learns back, and routes builds whose
// vantage point lives on a peer across the cluster — events, samples
// and summaries stream home, so clients see one server however many
// testbeds stand behind it. GET /api/v1/cluster shows the membership.
//
// With -feedgw the daemon runs in feed-gateway mode instead: no local
// scheduler, no nodes, no state — just a stateless relay that serves
// the v1 streaming routes (build events and live samples) by
// subscribing to the given upstream access server with each client's
// own bearer token. A gateway next to a dashboard fleet holds its client
// connections, but each client stream is still one upstream stream at
// the control server. The gateway reconnects severed upstream streams
// from its accumulated resume cursor, so clients see one uninterrupted
// stream.
//
// With -data the server keeps a write-ahead log plus periodic
// snapshots under the directory and replays them at startup: users
// (tokens intact), jobs, node lifecycle state, builds, campaigns and
// the credit ledger all survive a crash or restart, and builds that
// were mid-run fail over and complete. With -credits submissions are
// gated on the §5 ledger (402 insufficient_credits over the API) and
// finished runs debit their measured device time.
//
// Every hosted and connected vantage point is health-monitored:
// heartbeat probes drive the online/suspect/offline lifecycle, and
// builds leased to a node that stops beating fail over automatically.
// The -flaky flag injects failures into hosted nodes for testing that
// machinery: `-flaky name=killAfter[/reviveAfter]` kills the named
// simulated node after killAfter (and optionally revives it
// reviveAfter after that).
//
// Then, from another terminal:
//
//	blab-run -server http://127.0.0.1:9090 -token $TOKEN -browser Brave -pages 1 -scrolls 1
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"batterylab"
	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/feedgw"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/remote"
	"batterylab/internal/sshx"
)

type nodeList []string

func (n *nodeList) String() string     { return strings.Join(*n, ",") }
func (n *nodeList) Set(v string) error { *n = append(*n, v); return nil }

// flakySpec is one parsed -flaky directive.
type flakySpec struct {
	node   string
	kill   time.Duration
	revive time.Duration // 0 = stays dead
}

// parseFlaky parses "name=killAfter[/reviveAfter]".
func parseFlaky(v string) (flakySpec, error) {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return flakySpec{}, fmt.Errorf("-flaky %q: want name=killAfter[/reviveAfter]", v)
	}
	killStr, reviveStr, hasRevive := strings.Cut(spec, "/")
	kill, err := time.ParseDuration(killStr)
	if err != nil {
		return flakySpec{}, fmt.Errorf("-flaky %q: %v", v, err)
	}
	out := flakySpec{node: name, kill: kill}
	if hasRevive {
		revive, err := time.ParseDuration(reviveStr)
		if err != nil {
			return flakySpec{}, fmt.Errorf("-flaky %q: %v", v, err)
		}
		out.revive = revive
	}
	return out, nil
}

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:9090", "v1 API listen address")
		sim      = flag.Int("sim", 1, "simulated vantage points to host in-process")
		seed     = flag.Uint64("seed", 2019, "simulation seed for hosted vantage points")
		dataDir  = flag.String("data", "", "state directory for WAL+snapshot crash recovery (empty = in-memory only)")
		credits  = flag.Bool("credits", false, "enforce the §5 credit economy (admins exempt; experimenter gets a starter grant)")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		statsInt = flag.Duration("stats-every", time.Minute, "period between stats digests in the structured log (0 disables)")
		gwURL    = flag.String("feedgw", "", "run as a feed gateway relaying the v1 streaming routes from this upstream access server URL (no local scheduler)")
		clName   = flag.String("cluster-name", "", "this server's cluster-unique name for federation (default \"batterylab\")")
		clToken  = flag.String("cluster-token", "", "shared federation secret; empty disables federation")
		advURL   = flag.String("advertise", "", "base URL peers reach this server at (default http://<-http addr>)")
		nodes    nodeList
		flaky    nodeList
		owners   nodeList
		peers    nodeList
	)
	flag.Var(&nodes, "node", "vantage point as name=addr (repeatable)")
	flag.Var(&flaky, "flaky", "failure injection for a hosted node as name=killAfter[/reviveAfter] (repeatable)")
	flag.Var(&owners, "owner", "hosting member as node=user; the owner earns §5 contribution credits for the node's online time (repeatable)")
	flag.Var(&peers, "peer", "upstream access server base URL to announce to and federate with (repeatable; needs -cluster-token)")
	flag.Parse()

	if *gwURL != "" {
		runFeedGateway(*httpAddr, *gwURL)
		return
	}

	flakySpecs := make(map[string]flakySpec)
	for _, v := range flaky {
		fs, err := parseFlaky(v)
		if err != nil {
			log.Fatal(err)
		}
		flakySpecs[fs.node] = fs
	}

	// The daemon runs on the real clock: hosted experiments take their
	// actual scripted duration, like the physical testbed would.
	clock := batterylab.RealClock()
	plat, err := batterylab.NewPlatform(clock, *seed)
	if err != nil {
		log.Fatal(err)
	}
	srv := plat.Access

	// Structured logging to stderr (stdout keeps the human-facing boot
	// banner): one line per HTTP request, WAL failures, periodic stats.
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	srv.SetLogger(slog.New(handler))
	if *statsInt > 0 {
		stop := srv.StartStatsFlush(*statsInt)
		defer stop()
	}

	clientKey, err := sshx.GenerateKeypair()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("access server up\n")
	fmt.Printf("  client public key  : %x\n", []byte(clientKey.Pub))

	// Hosted simulated vantage points: a controller + device + monitor
	// each, joined through the §3.4 workflow, ready for v1 spec
	// submissions against the builtin workload registry.
	for i := 1; i <= *sim; i++ {
		name := fmt.Sprintf("node%d", i)
		_, dev, fqdn, err := batterylab.NewVantagePoint(clock, plat, batterylab.VantagePointConfig{
			Name:      name,
			Seed:      *seed + uint64(i),
			Addr:      fmt.Sprintf("198.51.100.%d:2222", i),
			VideoPath: "/sdcard/blab.mp4",
		})
		if err != nil {
			log.Fatal(err)
		}
		if fs, ok := flakySpecs[name]; ok {
			// Re-register behind the failure injector, then schedule the
			// kill (and optional revival) on the daemon clock.
			inner, err := srv.Nodes.Get(name)
			if err != nil {
				log.Fatal(err)
			}
			flk := accessserver.NewFlakyNode(inner)
			srv.Nodes.Remove(name)
			if err := srv.Nodes.Register(flk); err != nil {
				log.Fatal(err)
			}
			clock.AfterFunc(fs.kill, func() {
				flk.Kill()
				fmt.Printf("  failure injection  : killed %s\n", name)
			})
			if fs.revive > 0 {
				clock.AfterFunc(fs.kill+fs.revive, func() {
					flk.Revive()
					fmt.Printf("  failure injection  : revived %s\n", name)
				})
			}
			fmt.Printf("  failure injection  : %s dies in %s%s\n", name, fs.kill,
				map[bool]string{true: fmt.Sprintf(", back %s later", fs.revive), false: " (for good)"}[fs.revive > 0])
		}
		if err := srv.MonitorNode(name); err != nil {
			log.Fatal(err)
		}
		delete(flakySpecs, name)
		fmt.Printf("  vantage point      : %s hosting %s (simulated, health-monitored)\n", fqdn, dev.Serial())
	}
	for name := range flakySpecs {
		log.Fatalf("-flaky %s: no hosted vantage point by that name (have node1..node%d)", name, *sim)
	}

	// Remote vantage points over the sshx channel (status/maintenance
	// surface; measurements need a hosted controller).
	for _, spec := range nodes {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("-node %q: want name=addr", spec)
		}
		cl := sshx.NewClient(clientKey)
		if err := cl.Dial(addr, nil); err != nil { // trust on first use
			log.Fatalf("connecting to %s at %s: %v", name, addr, err)
		}
		srv.Nodes.Approve(name)
		if err := srv.RegisterNode(accessserver.NewRemoteNode(name, cl)); err != nil {
			log.Fatal(err)
		}
		out, err := cl.Exec("ping")
		if err != nil {
			log.Fatalf("ping %s: %v", name, err)
		}
		fmt.Printf("  vantage point      : %s at %s (%s, host key %s)\n",
			name, addr, out, sshx.Fingerprint(cl.HostKey()))
	}

	// Federation identity before the store attach, so replayed peer
	// membership lands in a registry that already knows who it is.
	if *clToken != "" {
		adv := *advURL
		if adv == "" {
			adv = "http://" + *httpAddr
		}
		srv.ConfigureCluster(*clName, adv, *clToken)
	} else if len(peers) > 0 {
		log.Fatal("-peer needs -cluster-token (the shared federation secret)")
	}

	// Durable state: replay snapshot+WAL from the data directory — after
	// the nodes above are registered, so interrupted spec builds can
	// recompile and dispatch — then log every mutation from here on. A
	// restart picks up users (tokens intact), jobs, node lifecycle,
	// builds, campaigns and the credit ledger where the last process
	// left them.
	if *dataDir != "" {
		srv.ExpectDurable() // /readyz answers 503 until the store attaches
		st, err := store.Open(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := srv.AttachStore(st)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  durable state      : %s (recovered %d users, %d jobs, %d builds; %d requeued, %d resumed via failover)\n",
			*dataDir, stats.Users, stats.Jobs, stats.Builds, stats.Requeued, stats.Resumed)
	}

	// Bootstrap users after the store attach: on a restart the persisted
	// users (and tokens) are already back, so only a first boot creates
	// them.
	ensureUser := func(name string, role accessserver.Role) *accessserver.User {
		if u, err := srv.Users.Lookup(name); err == nil {
			return u
		}
		u, err := srv.Users.Add(name, role)
		if err != nil {
			log.Fatal(err)
		}
		return u
	}
	admin := ensureUser("admin", accessserver.RoleAdmin)
	exp := ensureUser("experimenter", accessserver.RoleExperimenter)
	fmt.Printf("  admin token        : %s\n", admin.Token)
	fmt.Printf("  experimenter token : %s\n", exp.Token)

	// Node ownership (after the store attach, so assignments are
	// logged; idempotent across restarts).
	for _, spec := range owners {
		node, user, ok := strings.Cut(spec, "=")
		if !ok || node == "" || user == "" {
			log.Fatalf("-owner %q: want node=user", spec)
		}
		if _, err := srv.Nodes.Get(node); err != nil {
			log.Fatalf("-owner %s: %v", spec, err)
		}
		// Same check as the v1 route: credits must not accrue to a
		// nonexistent member (a typo would earn into the void).
		if _, err := srv.Users.Lookup(user); err != nil {
			log.Fatalf("-owner %s: %v", spec, err)
		}
		srv.SetNodeOwner(node, user)
		fmt.Printf("  node owner         : %s hosts %s (earns %.1f credits/h online)\n",
			user, node, accessserver.ContributionRate)
	}

	if *credits {
		srv.SetCreditEnforcement(true)
		// First boot only: any prior ledger movement (even one that
		// drained the balance to zero) means no fresh grant — otherwise
		// a broke experimenter could refill by bouncing the server.
		if len(srv.Ledger.History(exp.Name)) == 0 {
			srv.Ledger.Grant(exp.Name, 60, "starter grant")
		}
		fmt.Printf("  credit economy     : enforced (experimenter balance %.1f; contribute node time to earn %.1f/h)\n",
			srv.Ledger.Balance(exp.Name), accessserver.ContributionRate)
	}

	httpSrv := &http.Server{Addr: *httpAddr, Handler: srv.Handler()}
	go func() {
		if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("http: %v", err)
		}
	}()
	fmt.Printf("  remote API         : http://%s/api/v1/nodes\n", *httpAddr)
	fmt.Printf("  metrics            : http://%s/api/v1/metrics (healthz/readyz unauthenticated)\n", *httpAddr)

	// Federation: install the cross-server relay (internal/remote speaks
	// the v1 protocol the scheduler's routed builds travel over) and
	// start announcing. Started after the listener is up so the first
	// announce advertises a reachable URL.
	if *clToken != "" {
		srv.SetPeerRelay(remote.Relay)
		srv.StartCluster(peers...)
		fmt.Printf("  federation         : %s announcing as %q to %d seed peer(s); cluster view at /api/v1/cluster\n",
			srv.Cluster().URL(), srv.Cluster().Self(), len(peers))
	}
	fmt.Printf("  try                : curl -H 'Authorization: Bearer %s' http://%s/api/v1/workloads\n",
		exp.Token, *httpAddr)

	// SIGTERM (the orchestrator's stop signal) and SIGINT (^C) take the
	// same graceful path: close the listener, write a parting snapshot.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	httpSrv.Close()
	if *dataDir != "" {
		// A parting snapshot keeps the next replay minimal; skipping it
		// would only mean replaying more WAL.
		if err := srv.CompactStore(); err != nil {
			log.Printf("final snapshot: %v", err)
		}
	}
	fmt.Println("shutting down")
}

// runFeedGateway serves the -feedgw mode: the stateless streaming relay
// of internal/accessserver/feedgw on addr, until SIGTERM/SIGINT.
func runFeedGateway(addr, upstream string) {
	gw := feedgw.New(upstream)
	httpSrv := &http.Server{Addr: addr, Handler: gw.Handler()}
	go func() {
		if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("http: %v", err)
		}
	}()
	fmt.Printf("feed gateway up\n")
	fmt.Printf("  upstream           : %s\n", upstream)
	fmt.Printf("  events             : http://%s/api/v1/builds/{id}/events\n", addr)
	fmt.Printf("  samples            : http://%s/api/v1/builds/{id}/samples\n", addr)
	fmt.Printf("  metrics            : http://%s/api/v1/metrics (healthz unauthenticated)\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	httpSrv.Close()
	fmt.Println("shutting down")
}
