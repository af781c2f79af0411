// Package archtest holds the repository's architecture rules as tier-1
// tests. One `go list -test -deps -export -json ./...` run feeds a
// go/types check of every package of the module and of every test variant
// of one, from source and in dependency order, and a second run in
// benchmark/ (a module of its own, joined by replace) adds its packages;
// a failed go list or type error fails every rule. A rule names objects
// — a field, a method, a constant's value — and matches their uses, never
// a spelling. Each rule has fixtures under testdata/<rule>/, each joined
// to the package it targets as one extra file (or, a directory, as files
// joined to the packages their paths name), that break it and no other.
// Standard library only. The rules, with the CI step each replaced:
//
//   - one build model (was the "one build model" grep): no /api/ route
//     but /api/v1/ on an http.ServeMux, read as a constant; no
//     pipelineLocked, no Runnable.
//   - one build lifecycle (the "one build lifecycle" step and its count):
//     terminal states, api.EventFailover and TBuildFailover/TBuildFinished
//     records only in lifecycle.go; one statement writes a record's State
//     into a BuildRec; Sched.locks deletes only in Sched.Release.
//   - one apply (the "one apply" step): no write to a store.BuildRec or
//     store.NodeRec, or a field of one, outside persist.go.
//   - one node table (the "one node table" step): Server.Nodes read only
//     in node.go; no second registry.
//   - one record codec (the "one record codec" step): in store, no JSON
//     marshal of a Record, no per-message codec, no reflect or unsafe.
//   - sections have one exit, one clock driver, a frame is bytes: the
//     go/parser tests of accessserver, simclock and api they were.
//   - architecture map: README's internal/ table has one row per package.
//   - route table (new, no step replaced): README's route table has one
//     row per /api/v1/ route the access server's handler functions
//     register, read as a constant, and no row for a route they do not.
//   - one run handle (new, no step replaced): outside internal/core no
//     type declares Wait(ctx, …) and no non-test code starts a goroutine
//     that acts when a context's Done fires — the run handle and its ctx
//     watcher exist once, in core.
//   - one feed reader (new, no step replaced): outside feedhub no
//     non-test code of the module selects Feed.EventsSince or
//     Feed.SamplesSince — a build's feed is followed through Feed.Follow
//     alone, so a stream ends cleanly only when its feed closed.
//   - sched is pure (new, no step replaced): the scheduler core's non-test
//     files import none of net/http, os, log, log/slog, sync, simclock,
//     store or feedhub, call no time.Now, Since, Sleep, AfterFunc,
//     NewTimer or NewTicker, and start no goroutine; and no function or
//     method of it is reached by tests alone but the surface the rule
//     lists, each entry with the reason a server oracle needs it, which
//     non-test code must not reach.
//   - p2 only in metrics (new, no step replaced): outside samples no
//     non-test code but internal/metrics names samples.P2Quantile or
//     samples.NewP2Quantile — a capture's quantiles are exact, and P² is
//     left to metrics.Histogram's latencies.
//   - reachable (new, no step replaced): every function and method of a
//     non-test file is reached — called, taken as a value or referenced,
//     a generic instance counting as its origin — from a root: main and
//     init of every package and every package-level initialiser; the
//     root package's exported functions and the exported method sets of
//     its exported and aliased types; everything benchmark/ references;
//     anything a test of a different package references; a method whose
//     name and signature an interface of the module or its imports
//     declares, and Is, As or Unwrap on an error type. A finding reads
//     "file:line pkg.Func — reached by nothing" (delete it) or "— reached
//     only by tests of <pkg>" (move it into a _test.go file, or delete it).
package archtest
