// Package archtest holds the repository's architecture rules as tier-1
// tests. One `go list -deps -export -json ./...` run feeds a go/types
// check of every package of the module from source; a rule names objects
// — a field, a method, a constant's value — and matches their uses, never
// a spelling. Each rule has a fixture under testdata/<rule>/, joined to
// the package it targets as one extra file, that breaks it and no other.
// Standard library only. The rules, with the CI step each replaced:
//
//   - one build model (was the "one build model" grep): no /api/ route
//     but /api/v1/ on an http.ServeMux, read as a constant; no
//     pipelineLocked, no Runnable.
//   - one build lifecycle (the "one build lifecycle" step and its count):
//     terminal states, Server.locks deletes, api.EventFailover and
//     TBuildFailover/TBuildFinished records only in lifecycle.go; one
//     statement writes a record's State into a BuildRec.
//   - one apply (the "one apply" step): no write to a store.BuildRec or
//     store.NodeRec, or a field of one, outside persist.go.
//   - one node table (the "one node table" step): Server.Nodes read only
//     in node.go; no second registry.
//   - one record codec (the "one record codec" step): in store, no JSON
//     marshal of a Record, no per-message codec, no reflect or unsafe.
//   - sections have one exit, one clock driver, a frame is bytes: the
//     go/parser tests of accessserver, simclock and api they were.
//   - architecture map: README's internal/ table has one row per package.
package archtest
