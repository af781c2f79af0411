package accessserver

import (
	"fmt"
	"sync"
	"time"
)

// Ledger implements the credit system the paper anticipates (§5):
// members earn credits by contributing vantage point resources and spend
// them running experiments, so experimenters lacking hardware for the
// initial setup can still buy access.
//
// Accounting units: one credit buys one device-minute of measurement.
type Ledger struct {
	mu       sync.Mutex
	balances map[string]float64
	history  map[string][]LedgerEntry
	// hook observes every movement (the WAL append when a store is
	// attached). Called under l.mu; it must not re-enter the ledger.
	hook func(user string, e LedgerEntry)
}

// LedgerEntry records one credit movement.
type LedgerEntry struct {
	Delta  float64
	Reason string
}

// ContributionRate is the credits earned per vantage-point-hour
// contributed to the platform.
const ContributionRate = 4.0

// maxLedgerHistory bounds one member's retained entry history: the
// balance is tracked separately and stays exact, but on a long-lived
// deployment the audit trail keeps only the most recent movements —
// otherwise heartbeat-driven contribution accrual would grow history,
// snapshots and restart time without bound.
const maxLedgerHistory = 1000

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		balances: make(map[string]float64),
		history:  make(map[string][]LedgerEntry),
	}
}

// Balance reports a member's credits.
func (l *Ledger) Balance(user string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balances[user]
}

// History returns a member's ledger entries.
func (l *Ledger) History(user string) []LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]LedgerEntry{}, l.history[user]...)
}

// apply makes one movement; add also reports it to the hook. Callers
// hold l.mu.
func (l *Ledger) apply(user string, e LedgerEntry) {
	l.balances[user] += e.Delta
	h := append(l.history[user], e)
	if len(h) > maxLedgerHistory {
		h = h[len(h)-maxLedgerHistory:]
	}
	l.history[user] = h
}

func (l *Ledger) add(user string, e LedgerEntry) {
	l.apply(user, e)
	if l.hook != nil {
		l.hook(user, e)
	}
}

// setHook installs the movement observer (the persistence layer's WAL
// append). Replayed history installed via restore never reaches it.
func (l *Ledger) setHook(fn func(user string, e LedgerEntry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hook = fn
}

// restore reinstates a member's balance and (bounded) entry history
// from replay. The balance is authoritative — the history may be a
// trimmed tail that no longer sums to it.
func (l *Ledger) restore(user string, balance float64, entries []LedgerEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(entries) > maxLedgerHistory {
		entries = entries[len(entries)-maxLedgerHistory:]
	}
	l.balances[user] = balance
	l.history[user] = append([]LedgerEntry(nil), entries...)
}

// hostingEntry is the ledger entry one contribution flush produces —
// shared by the live credit path and WAL replay so both write the
// identical movement.
func hostingEntry(node string, dur time.Duration) LedgerEntry {
	return LedgerEntry{
		Delta:  ContributionRate * dur.Hours(),
		Reason: fmt.Sprintf("hosting %s for %s", node, dur.Round(time.Minute)),
	}
}

// CreditContribution awards credits for hosting a vantage point for the
// given duration.
func (l *Ledger) CreditContribution(user, node string, dur time.Duration) float64 {
	e := hostingEntry(node, dur)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.add(user, e)
	return e.Delta
}

// creditHostingFlush applies a contribution movement the hook must not
// see: the caller logs the combined TNodeHostingFlush record that carries
// it.
func (l *Ledger) creditHostingFlush(user, node string, dur time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.apply(user, hostingEntry(node, dur))
}

// Grant adds credits administratively (new-member starter grants).
func (l *Ledger) Grant(user string, credits float64, reason string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.add(user, LedgerEntry{Delta: credits, Reason: reason})
}

// experimentEntry is the ledger movement one run's device time costs —
// shared by every debit path so they cannot drift apart.
func experimentEntry(deviceTime time.Duration) LedgerEntry {
	return LedgerEntry{
		Delta:  -deviceTime.Minutes(),
		Reason: fmt.Sprintf("experiment (%s of device time)", deviceTime.Round(time.Second)),
	}
}

// ChargeExperiment debits the device-minutes an experiment consumed. It
// fails without mutating the balance when the member cannot cover it.
func (l *Ledger) ChargeExperiment(user string, deviceTime time.Duration) error {
	e := experimentEntry(deviceTime)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.balances[user] < -e.Delta {
		return fmt.Errorf("%w: %s has %.1f credits, needs %.1f",
			ErrInsufficientCredits, user, l.balances[user], -e.Delta)
	}
	l.add(user, e)
	return nil
}

// DebitExperiment debits the device time an experiment actually
// consumed, even into a negative balance — the run already happened, so
// unlike the submission gate there is nothing left to refuse. Returns
// the new balance.
func (l *Ledger) DebitExperiment(user string, deviceTime time.Duration) float64 {
	e := experimentEntry(deviceTime)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.add(user, e)
	return l.balances[user]
}

// CanAfford reports whether user can cover deviceTime of measurement.
func (l *Ledger) CanAfford(user string, deviceTime time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balances[user] >= deviceTime.Minutes()
}

// creditGate enforces the §5 economy at submission time: the member
// must be able to cover n experiments' worth of submitCharge device
// time. Admins operate the platform rather than buy access and are
// exempt, as is everyone while enforcement is off.
func (s *Server) creditGate(user *User, n int) error {
	if !s.creditsOn.Load() || user.Role == RoleAdmin || user.Role == RolePeer {
		// Peer-relayed builds were charged to their real owner on the
		// home server; double-billing the federation would be a toll.
		return nil
	}
	need := time.Duration(n) * submitCharge
	if !s.Ledger.CanAfford(user.Name, need) {
		s.m.creditDenials.Inc()
		return fmt.Errorf("%w: %s has %.1f credits; %d experiment(s) need at least %.1f — contribute vantage point time to earn more",
			ErrInsufficientCredits, user.Name, s.Ledger.Balance(user.Name), n, need.Minutes())
	}
	return nil
}

// chargeRun debits the device time a finished build actually consumed
// (the real §5 charge; the submission gate was only an affordability
// check). The balance may go negative — the device time is spent — and
// the next submission gate catches up with the debtor.
func (s *Server) chargeRun(owner string, deviceTime time.Duration) {
	if !s.creditsOn.Load() || deviceTime <= 0 {
		return
	}
	u, err := s.Users.Lookup(owner)
	if err != nil || u.Role == RoleAdmin {
		return
	}
	s.Ledger.DebitExperiment(owner, deviceTime)
	s.m.runsCharged.Inc()
	s.m.creditsDebited.Add(deviceTime.Minutes())
}
