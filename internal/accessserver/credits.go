package accessserver

import (
	"fmt"
	"sync"
	"time"

	"batterylab/internal/accessserver/store"
)

// Ledger implements the credit system the paper anticipates (§5):
// members earn credits by contributing vantage point resources and spend
// them running experiments, so experimenters lacking hardware for the
// initial setup can still buy access.
//
// Accounting units: one credit buys one device-minute of measurement.
//
// A view of the server like Users: every movement is made under s.mu by a
// section that logs the record carrying it, and takes l.mu under s.mu;
// Balance, History and CanAfford read under l.mu alone.
type Ledger struct {
	s        *Server
	mu       sync.Mutex
	balances map[string]float64
	history  map[string][]LedgerEntry
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

// restore reinstates a member's balance and (bounded) entry history
// from replay. The balance is authoritative — the history may be a
// trimmed tail that no longer sums to it. Callers hold s.mu.
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

// record makes one movement. Callers hold s.mu and log the record that
// carries it with their section — a hosting flush's combined
// TNodeHostingFlush, a grant's or a finished run's TLedger (moveLocked) —
// so the movement and the change that caused it reach the WAL as one
// write.
func (l *Ledger) record(user string, e LedgerEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances[user] += e.Delta
	h := append(l.history[user], e)
	if len(h) > maxLedgerHistory {
		h = h[len(h)-maxLedgerHistory:]
	}
	l.history[user] = h
}

// Grant adds credits administratively (new-member starter grants).
func (l *Ledger) Grant(user string, credits float64, reason string) {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	l.s.moveLocked(user, LedgerEntry{Delta: credits, Reason: reason})
}

// moveLocked makes a movement that is its own TLedger record. Callers
// hold s.mu.
func (s *Server) moveLocked(user string, e LedgerEntry) {
	s.Ledger.record(user, e)
	s.logStore(store.Record{T: store.TLedger, Entry: &store.LedgerRec{User: user, Delta: e.Delta, Reason: e.Reason}})
}

// experimentEntry is the ledger movement one run's device time costs —
// shared by every debit path so they cannot drift apart.
func experimentEntry(deviceTime time.Duration) LedgerEntry {
	return LedgerEntry{
		Delta:  -deviceTime.Minutes(),
		Reason: fmt.Sprintf("experiment (%s of device time)", deviceTime.Round(time.Second)),
	}
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

// chargeRunLocked debits the device time build b, settled by the caller's
// section, actually consumed (the real §5 charge; the submission gate was
// only an affordability check), even into a negative balance: the run
// already happened, and the next submission gate catches the debtor. The
// finished record and its charge leave the section as one WAL write.
// Callers hold s.mu.
func (s *Server) chargeRunLocked(b *Build) {
	deviceTime := b.Duration()
	if !s.creditsOn.Load() || deviceTime <= 0 {
		return
	}
	u, err := s.Users.Lookup(b.Owner)
	if err != nil || u.Role == RoleAdmin {
		return
	}
	s.moveLocked(b.Owner, experimentEntry(deviceTime))
	s.m.runsCharged.Inc()
	s.m.creditsDebited.Add(deviceTime.Minutes())
}
