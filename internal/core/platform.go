// Package core is BatteryLab's platform layer — the paper's primary
// contribution: the federation of independent battery-testing setups
// into one distributed measurement platform. It ties the access server
// to vantage points through the §3.4 join workflow (DNS registration,
// wildcard certificate deployment, key exchange), installs the
// platform's maintenance jobs, and provides the experiment runner that
// orchestrates an end-to-end battery measurement: automation channel
// setup, optional device mirroring, monitor arming, workload execution
// and trace collection.
package core

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"sync"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/certs"
	"batterylab/internal/controller"
	"batterylab/internal/dnsreg"
	"batterylab/internal/simclock"
)

// Domain is the platform's DNS zone.
const Domain = "batterylab.dev"

// Platform is one BatteryLab deployment.
type Platform struct {
	clock simclock.Clock
	seed  uint64

	Access *accessserver.Server
	Zone   *dnsreg.Zone
	CA     *certs.CA

	// workloads is the named-workload registry the v1 remote API
	// compiles declarative specs against.
	workloads *WorkloadRegistry

	mu    sync.Mutex
	vps   map[string]*controller.Controller
	certs map[string]*certs.Certificate // node -> deployed cert

	// driveMu serializes virtual-clock driving across concurrent Waits
	// (sessions and campaigns), keeping event order deterministic.
	driveMu sync.Mutex
}

// NewPlatform assembles an empty platform: access server, DNS zone and
// certificate authority.
func NewPlatform(clock simclock.Clock, seed uint64) (*Platform, error) {
	ca, err := certs.NewCA("BatteryLab Root CA", clock.Now())
	if err != nil {
		return nil, err
	}
	p := &Platform{
		clock:     clock,
		seed:      seed,
		Access:    accessserver.New(clock, accessserver.Config{}),
		Zone:      dnsreg.NewZone(Domain),
		CA:        ca,
		workloads: NewWorkloadRegistry(),
		vps:       make(map[string]*controller.Controller),
		certs:     make(map[string]*certs.Certificate),
	}
	// Wire the v1 remote-execution API: the access server compiles
	// declarative specs through the platform's workload registry.
	p.Access.SetSpecBackend(specBackend{p})
	return p, nil
}

// Clock reports the platform clock.
func (p *Platform) Clock() simclock.Clock { return p.clock }

// Join runs the §3.4 membership workflow for a vantage point hosted
// in-process: approve and register the node, add its DNS record, issue
// and deploy the wildcard certificate. It returns the vantage point's
// FQDN.
func (p *Platform) Join(ctl *controller.Controller, addr string) (string, error) {
	name := ctl.Name()
	p.Access.Nodes.Approve(name)
	node := accessserver.NewLocalNode(ctl)
	if err := p.Access.Nodes.Register(node); err != nil {
		return "", err
	}
	fqdn, err := p.Zone.Register(name, addr)
	if err != nil {
		p.Access.Nodes.Remove(name)
		return "", err
	}
	cert, err := p.deployCert(node)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.vps[name] = ctl
	p.certs[name] = cert
	p.mu.Unlock()
	p.Access.Kick()
	return fqdn, nil
}

// deployCert issues (or reuses) the wildcard certificate and pushes it
// to the node.
func (p *Platform) deployCert(node accessserver.Node) (*certs.Certificate, error) {
	cert, err := p.CA.IssueWildcard(Domain, 0, p.clock.Now())
	if err != nil {
		return nil, err
	}
	_, err = node.Exec("deploy_cert",
		base64.StdEncoding.EncodeToString(cert.CertPEM),
		base64.StdEncoding.EncodeToString(cert.KeyPEM))
	if err != nil {
		return nil, fmt.Errorf("core: deploying cert to %s: %w", node.Name(), err)
	}
	return cert, nil
}

// Controller returns a joined vantage point by name.
func (p *Platform) Controller(name string) (*controller.Controller, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ctl, ok := p.vps[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	return ctl, nil
}

// drive advances a virtual clock deadline-by-deadline until done closes,
// ctx is canceled, or the next pending timer lies beyond deadline(). It
// replaces the old fixed-increment spin loop: every iteration either
// fires at least one timer or returns, and concurrent drivers block on
// the platform's driver lock instead of burning CPU.
func (p *Platform) drive(ctx context.Context, v *simclock.Virtual, done <-chan struct{}, deadline func() time.Time) error {
	for {
		select {
		case <-done:
			return nil
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		p.driveMu.Lock()
		// Another driver may have completed our run while we waited for
		// the lock.
		select {
		case <-done:
			p.driveMu.Unlock()
			return nil
		default:
		}
		next, ok := v.NextDeadline()
		if !ok {
			p.driveMu.Unlock()
			return errors.New("core: run stalled: no pending timers on the virtual clock")
		}
		if dl := deadline(); next.After(dl) {
			p.driveMu.Unlock()
			return fmt.Errorf("core: run did not finish within its time budget (next event %v past %v)", next, dl)
		}
		// Step, not RunUntil(next): a ticker firing at next batches its
		// ticks up to the following deadline only under a driver that
		// does not stop at next. A held clock refuses Step; RunUntil
		// fires regardless, as this loop always has.
		if !v.Step() {
			v.RunUntil(next)
		}
		p.driveMu.Unlock()
	}
}

// VantagePoints lists joined vantage point names via the DNS zone.
func (p *Platform) VantagePoints() []string { return p.Zone.List() }

// DeployedCert reports the certificate deployed at a node.
func (p *Platform) DeployedCert(name string) (*certs.Certificate, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.certs[name]
	if !ok {
		return nil, fmt.Errorf("core: no certificate for %q", name)
	}
	return c, nil
}

// InstallMaintenanceJobs starts the platform's recurring tasks (§3.1):
// the Monsoon-off safety sweep and wildcard certificate renewal. It
// returns a stop function.
func (p *Platform) InstallMaintenanceJobs() (stop func()) {
	stopSafety := p.Access.Cron("monsoon-safety", 10*time.Minute, func() {
		p.mu.Lock()
		ctls := make([]*controller.Controller, 0, len(p.vps))
		for _, c := range p.vps {
			ctls = append(ctls, c)
		}
		p.mu.Unlock()
		for _, c := range ctls {
			c.SafetyCheck()
		}
	})
	stopRenew := p.Access.Cron("cert-renewal", 24*time.Hour, func() {
		p.RenewCertificates()
	})
	return func() {
		stopSafety()
		stopRenew()
	}
}

// RenewCertificates re-issues and redeploys every certificate that is
// inside the renewal window, returning how many were renewed.
func (p *Platform) RenewCertificates() int {
	p.mu.Lock()
	type target struct {
		name string
		ctl  *controller.Controller
		cert *certs.Certificate
	}
	var targets []target
	for name, c := range p.vps {
		targets = append(targets, target{name, c, p.certs[name]})
	}
	p.mu.Unlock()

	renewed := 0
	for _, t := range targets {
		if t.cert != nil && !certs.NeedsRenewal(t.cert.Leaf, p.clock.Now()) {
			continue
		}
		node := accessserver.NewLocalNode(t.ctl)
		cert, err := p.deployCert(node)
		if err != nil {
			continue
		}
		p.mu.Lock()
		p.certs[t.name] = cert
		p.mu.Unlock()
		renewed++
	}
	return renewed
}
