// Package accessserver implements BatteryLab's access server (§3.1): the
// Jenkins-like automation core that manages vantage points and schedules
// experiments on them. It provides multi-user authentication with a
// role-based authorization matrix, a job/pipeline store where every
// pipeline change needs administrator approval, a build queue that
// dispatches jobs under platform constraints (one job at a time per
// device, optional low-CPU gating), per-build workspaces with bounded
// log/artifact retention, and the recurring maintenance jobs the paper
// describes (certificate renewal, monitor-off safety, factory reset).
package accessserver

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"

	"batterylab/internal/accessserver/store"
)

// Role is a user's platform role.
type Role int

// Roles.
const (
	// RoleAdmin manages users, nodes and pipeline approvals.
	RoleAdmin Role = iota
	// RoleExperimenter creates and runs jobs.
	RoleExperimenter
	// RoleTester only interacts with device-mirroring sessions shared
	// with them (the crowdsourced humans of §3).
	RoleTester
	// RolePeer is the synthetic principal behind the shared cluster
	// token: a federated peer relaying builds here. It may submit and
	// follow builds — nothing else — and is exempt from admission
	// fairness and credits, because the build's home server already
	// applied both to the real submitting user.
	RolePeer
)

func (r Role) String() string {
	switch r {
	case RoleAdmin:
		return "admin"
	case RoleExperimenter:
		return "experimenter"
	case RolePeer:
		return "peer"
	default:
		return "tester"
	}
}

// Permission is one action in the authorization matrix.
type Permission int

// Permissions.
const (
	PermCreateJob Permission = iota
	PermEditJob
	PermRunJob
	PermApprovePipeline
	PermManageNodes
	PermManageUsers
	PermViewConsole
	PermInteractSession
)

func (p Permission) String() string {
	switch p {
	case PermCreateJob:
		return "create-job"
	case PermEditJob:
		return "edit-job"
	case PermRunJob:
		return "run-job"
	case PermApprovePipeline:
		return "approve-pipeline"
	case PermManageNodes:
		return "manage-nodes"
	case PermManageUsers:
		return "manage-users"
	case PermViewConsole:
		return "view-console"
	default:
		return "interact-session"
	}
}

// matrix is the role-based authorization matrix (§3.1).
var matrix = map[Role]map[Permission]bool{
	RoleAdmin: {
		PermCreateJob: true, PermEditJob: true, PermRunJob: true,
		PermApprovePipeline: true, PermManageNodes: true, PermManageUsers: true,
		PermViewConsole: true, PermInteractSession: true,
	},
	RoleExperimenter: {
		PermCreateJob: true, PermEditJob: true, PermRunJob: true,
		PermViewConsole: true, PermInteractSession: true,
	},
	RoleTester: {
		PermInteractSession: true,
	},
	RolePeer: {
		PermRunJob: true, PermViewConsole: true,
	},
}

// Allowed reports whether role may perform perm.
func Allowed(role Role, perm Permission) bool {
	return matrix[role][perm]
}

// User is an authenticated platform member.
type User struct {
	Name  string
	Role  Role
	Token string
}

// Users is the credential store, a view of the server like Nodes: Add and
// Remove are scheduler sections under s.mu that log their record, which
// the section's exit writes. Authenticate, Lookup and List read under
// u.mu alone and stay off s.mu; a writer takes u.mu under s.mu.
type Users struct {
	s       *Server
	mu      sync.RWMutex
	byToken map[string]*User
	byName  map[string]*User
}

// restore reinstates a member with their original token (recovery
// path). An existing entry by the same name — a daemon that re-created
// its bootstrap users before attaching the store — is replaced, so the
// persisted token stays the valid one. Callers hold s.mu.
func (u *Users) restore(name string, role Role, token string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if old, ok := u.byName[name]; ok {
		delete(u.byToken, old.Token)
	}
	user := &User{Name: name, Role: role, Token: token}
	u.byName[name] = user
	u.byToken[token] = user
}

// Add creates a user and returns its access token.
func (u *Users) Add(name string, role Role) (*User, error) {
	tok := make([]byte, 16)
	if _, err := rand.Read(tok); err != nil {
		return nil, err
	}
	u.s.mu.Lock()
	defer u.s.mu.Unlock()
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, dup := u.byName[name]; dup {
		return nil, fmt.Errorf("accessserver: user %q exists", name)
	}
	user := &User{Name: name, Role: role, Token: hex.EncodeToString(tok)}
	u.byToken[user.Token] = user
	u.byName[name] = user
	u.s.logStore(store.Record{T: store.TUserAdded, User: &store.UserRec{Name: name, Role: int(role), Token: user.Token}})
	return user, nil
}

// Authenticate resolves a token.
func (u *Users) Authenticate(token string) (*User, error) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	user, ok := u.byToken[token]
	if !ok {
		return nil, fmt.Errorf("accessserver: invalid token")
	}
	return user, nil
}

// Lookup resolves a name.
func (u *Users) Lookup(name string) (*User, error) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	user, ok := u.byName[name]
	if !ok {
		return nil, fmt.Errorf("accessserver: no user %q", name)
	}
	return user, nil
}
