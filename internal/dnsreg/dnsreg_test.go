package dnsreg

import (
	"fmt"
	"testing"
)

func TestRegisterResolve(t *testing.T) {
	z := NewZone("batterylab.dev")
	fqdn, err := z.Register("node1", "10.0.0.5:2222")
	if err != nil || fqdn != "node1.batterylab.dev" {
		t.Fatalf("Register = %q, %v", fqdn, err)
	}
	addr, err := z.Resolve("node1.batterylab.dev")
	if err != nil || addr != "10.0.0.5:2222" {
		t.Fatalf("Resolve = %q, %v", addr, err)
	}
}

func TestRegisterValidation(t *testing.T) {
	z := NewZone("batterylab.dev")
	for _, bad := range []string{"", "-x", "x-", "UPPER CASE", "a..b", "worst label ever"} {
		if _, err := z.Register(bad, "1.2.3.4"); err == nil {
			t.Fatalf("label %q accepted", bad)
		}
	}
	if _, err := z.Register("ok", ""); err == nil {
		t.Fatal("empty address accepted")
	}
	// Uppercase is folded, not rejected.
	if fqdn, err := z.Register("NODE2", "1.2.3.4"); err != nil || fqdn != "node2.batterylab.dev" {
		t.Fatalf("case folding: %q, %v", fqdn, err)
	}
}

func TestDuplicate(t *testing.T) {
	z := NewZone("batterylab.dev")
	z.Register("node1", "a")
	if _, err := z.Register("node1", "b"); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestResolveMisses(t *testing.T) {
	z := NewZone("batterylab.dev")
	if _, err := z.Resolve("nope.batterylab.dev"); err == nil {
		t.Fatal("NXDOMAIN resolved")
	}
	if _, err := z.Resolve("node1.other.org"); err == nil {
		t.Fatal("out-of-zone resolved")
	}
}

func TestDeregisterAndUpdate(t *testing.T) {
	z := NewZone("batterylab.dev")
	z.Register("node1", "a")
	if err := z.Update("node1", "b"); err != nil {
		t.Fatal(err)
	}
	addr, _ := z.Resolve("node1.batterylab.dev")
	if addr != "b" {
		t.Fatalf("after update: %q", addr)
	}
	if err := z.Deregister("node1"); err != nil {
		t.Fatal(err)
	}
	if err := z.Deregister("node1"); err == nil {
		t.Fatal("double deregister accepted")
	}
	if err := z.Update("node1", "c"); err == nil {
		t.Fatal("update of missing record accepted")
	}
}

func TestList(t *testing.T) {
	z := NewZone("batterylab.dev")
	z.Register("node2", "b")
	z.Register("node1", "a")
	got := z.List()
	if len(got) != 2 || got[0] != "node1.batterylab.dev" || got[1] != "node2.batterylab.dev" {
		t.Fatalf("List = %v", got)
	}
}

// Deregister removes a label.
func (z *Zone) Deregister(label string) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if _, ok := z.records[label]; !ok {
		return fmt.Errorf("dnsreg: no record %s.%s", label, z.domain)
	}
	delete(z.records, label)
	return nil
}

// Update repoints an existing label (a vantage point changing IP).
func (z *Zone) Update(label, addr string) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if _, ok := z.records[label]; !ok {
		return fmt.Errorf("dnsreg: no record %s.%s", label, z.domain)
	}
	z.records[label] = addr
	return nil
}
