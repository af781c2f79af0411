package sshx

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
)

// Handler executes one command for an authenticated client and returns
// its output.
type Handler func(cmd string, args []string) (string, error)

// Server is the vantage-point side of the channel: it authenticates
// clients against its authorized-key set and IP allowlist, then serves
// exec requests through the registered handlers.
type Server struct {
	ident Keypair

	mu         sync.Mutex
	authorized map[string]bool // fingerprint -> allowed
	allowCIDRs []*net.IPNet
	handlers   map[string]Handler
	listener   net.Listener
	conns      int
}

// NewServer creates a server with the given host identity.
func NewServer(ident Keypair) *Server {
	return &Server{
		ident:      ident,
		authorized: make(map[string]bool),
		handlers:   make(map[string]Handler),
	}
}

// HostKey reports the server's public host key.
func (s *Server) HostKey() ed25519.PublicKey { return s.ident.Pub }

// AuthorizeKey adds a client public key (the §3.4 "grant pubkey access
// to the access server" step).
func (s *Server) AuthorizeKey(pub ed25519.PublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.authorized[Fingerprint(pub)] = true
}

// AllowCIDR adds an address range to the IP allowlist. With no ranges
// configured, all source addresses are accepted (useful in-process).
func (s *Server) AllowCIDR(cidr string) error {
	_, ipnet, err := net.ParseCIDR(cidr)
	if err != nil {
		return fmt.Errorf("sshx: bad CIDR %q: %w", cidr, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.allowCIDRs = append(s.allowCIDRs, ipnet)
	return nil
}

func (s *Server) addrAllowed(addr net.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.allowCIDRs) == 0 {
		return true
	}
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil {
		host = addr.String()
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return false
	}
	for _, n := range s.allowCIDRs {
		if n.Contains(ip) {
			return true
		}
	}
	return false
}

// Handle registers a command handler.
func (s *Server) Handle(cmd string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[cmd] = h
}

func (s *Server) keyAuthorized(pub ed25519.PublicKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.authorized[Fingerprint(pub)]
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for tests)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return s.listener.Close()
	}
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

// serveConn runs one connection to completion.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.addrAllowed(conn.RemoteAddr()) {
		return // drop silently, like an iptables REJECT
	}
	sc, _, err := serverHandshake(conn, s.ident, s.keyAuthorized)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.conns++
	s.mu.Unlock()
	for {
		req, err := sc.readFrame()
		if err != nil {
			return
		}
		var call struct {
			Cmd  string   `json:"cmd"`
			Args []string `json:"args"`
		}
		resp := struct {
			Out string `json:"out,omitempty"`
			Err string `json:"err,omitempty"`
		}{}
		if err := json.Unmarshal(req, &call); err != nil {
			resp.Err = "bad request: " + err.Error()
		} else {
			s.mu.Lock()
			h := s.handlers[call.Cmd]
			s.mu.Unlock()
			if h == nil {
				resp.Err = "unknown command: " + call.Cmd
			} else if out, err := h(call.Cmd, call.Args); err != nil {
				resp.Err = err.Error()
			} else {
				resp.Out = out
			}
		}
		raw, _ := json.Marshal(resp)
		if err := sc.writeFrame(raw); err != nil {
			return
		}
	}
}

// Client is the access-server side of the channel.
type Client struct {
	ident Keypair

	mu   sync.Mutex
	conn net.Conn
	sc   *secureConn
	host ed25519.PublicKey
}

// NewClient creates a client with the given identity.
func NewClient(ident Keypair) *Client {
	return &Client{ident: ident}
}

// PublicKey reports the client's public key (for AuthorizeKey).
func (c *Client) PublicKey() ed25519.PublicKey { return c.ident.Pub }

// Dial connects and authenticates. expectedHost pins the controller's
// host key; pass nil to trust on first use (the fingerprint is then
// available via HostKey).
func (c *Client) Dial(addr string, expectedHost ed25519.PublicKey) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	sc, host, err := clientHandshake(conn, c.ident, expectedHost)
	if err != nil {
		conn.Close()
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn = conn
	c.sc = sc
	c.host = host
	return nil
}

// HostKey reports the connected server's host key.
func (c *Client) HostKey() ed25519.PublicKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.host
}

// Exec runs a command remotely and returns its output. Calls are
// serialized per connection, like commands in one SSH session.
func (c *Client) Exec(cmd string, args ...string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sc == nil {
		return "", fmt.Errorf("sshx: not connected")
	}
	req, err := json.Marshal(struct {
		Cmd  string   `json:"cmd"`
		Args []string `json:"args"`
	}{cmd, args})
	if err != nil {
		return "", err
	}
	if err := c.sc.writeFrame(req); err != nil {
		return "", err
	}
	raw, err := c.sc.readFrame()
	if err != nil {
		return "", err
	}
	var resp struct {
		Out string `json:"out"`
		Err string `json:"err"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return "", err
	}
	if resp.Err != "" {
		return resp.Out, fmt.Errorf("sshx: remote: %s", strings.TrimSpace(resp.Err))
	}
	return resp.Out, nil
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		c.sc = nil
		return err
	}
	return nil
}
