package sshx

import (
	"crypto/ed25519"
	"errors"
	"strings"
	"sync"
	"testing"
)

func newPair(t *testing.T) (server *Server, client *Client, addr string) {
	t.Helper()
	hostKey, err := GenerateKeypair()
	if err != nil {
		t.Fatal(err)
	}
	clientKey, err := GenerateKeypair()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(hostKey)
	cl := NewClient(clientKey)
	srv.AuthorizeKey(cl.PublicKey())
	srv.Handle("echo", func(_ string, args []string) (string, error) {
		return strings.Join(args, " "), nil
	})
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cl.Close() })
	return srv, cl, a
}

func TestExecRoundTrip(t *testing.T) {
	srv, cl, addr := newPair(t)
	if err := cl.Dial(addr, srv.HostKey()); err != nil {
		t.Fatal(err)
	}
	out, err := cl.Exec("echo", "hello", "vantage", "point")
	if err != nil {
		t.Fatal(err)
	}
	if out != "hello vantage point" {
		t.Fatalf("out = %q", out)
	}
	if srv.Connections() != 1 {
		t.Fatalf("connections = %d", srv.Connections())
	}
}

func TestMultipleExecsOneConnection(t *testing.T) {
	srv, cl, addr := newPair(t)
	cl.Dial(addr, srv.HostKey())
	for i := 0; i < 20; i++ {
		out, err := cl.Exec("echo", "x")
		if err != nil || out != "x" {
			t.Fatalf("iteration %d: %q, %v", i, out, err)
		}
	}
	if srv.Connections() != 1 {
		t.Fatalf("connections = %d, want 1", srv.Connections())
	}
}

func TestConcurrentExecSerialized(t *testing.T) {
	srv, cl, addr := newPair(t)
	cl.Dial(addr, srv.HostKey())
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := cl.Exec("echo", "y")
			if err != nil || out != "y" {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent exec: %v", err)
	}
}

func TestUnauthorizedKeyRejected(t *testing.T) {
	srv, _, addr := newPair(t)
	rogueKey, _ := GenerateKeypair()
	rogue := NewClient(rogueKey)
	defer rogue.Close()
	if err := rogue.Dial(addr, srv.HostKey()); err == nil {
		t.Fatal("unauthorized client connected")
	}
}

func TestRevokedKeyRejected(t *testing.T) {
	srv, cl, addr := newPair(t)
	srv.RevokeKey(cl.PublicKey())
	if err := cl.Dial(addr, srv.HostKey()); err == nil {
		t.Fatal("revoked client connected")
	}
}

func TestHostKeyPinning(t *testing.T) {
	_, cl, addr := newPair(t)
	wrongHost, _ := GenerateKeypair()
	if err := cl.Dial(addr, wrongHost.Pub); err == nil {
		t.Fatal("host key mismatch accepted")
	}
}

func TestTrustOnFirstUse(t *testing.T) {
	srv, cl, addr := newPair(t)
	if err := cl.Dial(addr, nil); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(cl.HostKey()) != Fingerprint(srv.HostKey()) {
		t.Fatal("TOFU host key wrong")
	}
}

func TestIPAllowlist(t *testing.T) {
	hostKey, _ := GenerateKeypair()
	clientKey, _ := GenerateKeypair()
	srv := NewServer(hostKey)
	cl := NewClient(clientKey)
	srv.AuthorizeKey(cl.PublicKey())
	if err := srv.AllowCIDR("10.99.0.0/16"); err != nil { // excludes loopback
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := cl.Dial(addr, srv.HostKey()); err == nil {
		t.Fatal("connection from non-allowlisted address accepted")
	}
	cl.Close()
	// Widening the allowlist admits loopback.
	srv.AllowCIDR("127.0.0.0/8")
	cl2 := NewClient(clientKey)
	defer cl2.Close()
	if err := cl2.Dial(addr, srv.HostKey()); err != nil {
		t.Fatalf("allowlisted dial: %v", err)
	}
}

func TestBadCIDR(t *testing.T) {
	srv := NewServer(Keypair{})
	if err := srv.AllowCIDR("not-a-cidr"); err == nil {
		t.Fatal("bad CIDR accepted")
	}
}

func TestUnknownCommand(t *testing.T) {
	srv, cl, addr := newPair(t)
	cl.Dial(addr, srv.HostKey())
	if _, err := cl.Exec("rm-rf-slash"); err == nil {
		t.Fatal("unknown command succeeded")
	}
}

func TestHandlerError(t *testing.T) {
	srv, cl, addr := newPair(t)
	srv.Handle("fail", func(string, []string) (string, error) {
		return "", errors.New("monsoon on fire")
	})
	cl.Dial(addr, srv.HostKey())
	_, err := cl.Exec("fail")
	if err == nil || !strings.Contains(err.Error(), "monsoon on fire") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecNotConnected(t *testing.T) {
	key, _ := GenerateKeypair()
	cl := NewClient(key)
	if _, err := cl.Exec("echo"); err == nil {
		t.Fatal("exec without dial succeeded")
	}
}

func TestFingerprintStable(t *testing.T) {
	key, _ := GenerateKeypair()
	if Fingerprint(key.Pub) != Fingerprint(key.Pub) {
		t.Fatal("fingerprint unstable")
	}
	other, _ := GenerateKeypair()
	if Fingerprint(key.Pub) == Fingerprint(other.Pub) {
		t.Fatal("fingerprint collision")
	}
}

// Connections reports how many clients completed the handshake.
func (s *Server) Connections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns
}

// RevokeKey removes a client key.
func (s *Server) RevokeKey(pub ed25519.PublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.authorized, Fingerprint(pub))
}
