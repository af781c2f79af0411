// Package dnsreg models BatteryLab's DNS zone management (§3.4): new
// vantage points pick a human-readable identifier which the platform adds
// to the batterylab.dev zone (node1.batterylab.dev, ...) — Amazon Route53
// in the paper, an in-process registry here.
package dnsreg

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Zone is a DNS zone holding vantage point records.
type Zone struct {
	domain string

	mu      sync.RWMutex
	records map[string]string // label -> address
}

var labelRE = regexp.MustCompile(`^[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?$`)

// NewZone returns an empty zone for the given apex domain.
func NewZone(domain string) *Zone {
	return &Zone{domain: domain, records: make(map[string]string)}
}

// Register adds label pointing at addr and returns the FQDN. Labels must
// be valid DNS labels and unused.
func (z *Zone) Register(label, addr string) (string, error) {
	label = strings.ToLower(label)
	if !labelRE.MatchString(label) {
		return "", fmt.Errorf("dnsreg: invalid label %q", label)
	}
	if addr == "" {
		return "", fmt.Errorf("dnsreg: empty address for %q", label)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	if _, dup := z.records[label]; dup {
		return "", fmt.Errorf("dnsreg: %s.%s already registered", label, z.domain)
	}
	z.records[label] = addr
	return label + "." + z.domain, nil
}

// Resolve returns the address for an FQDN inside the zone.
func (z *Zone) Resolve(fqdn string) (string, error) {
	suffix := "." + z.domain
	if !strings.HasSuffix(fqdn, suffix) {
		return "", fmt.Errorf("dnsreg: %s outside zone %s", fqdn, z.domain)
	}
	label := strings.TrimSuffix(fqdn, suffix)
	z.mu.RLock()
	defer z.mu.RUnlock()
	addr, ok := z.records[label]
	if !ok {
		return "", fmt.Errorf("dnsreg: NXDOMAIN %s", fqdn)
	}
	return addr, nil
}

// List reports all FQDNs in the zone, sorted.
func (z *Zone) List() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]string, 0, len(z.records))
	for label := range z.records {
		out = append(out, label+"."+z.domain)
	}
	sort.Strings(out)
	return out
}
