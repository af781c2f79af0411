package accessserver

import "batterylab/internal/accessserver/store"

// finishQuietly logs a build's end outside lifecycle.go, through a named
// constant.
func (s *Server) finishQuietly(b *Build) {
	const done = store.TBuildFinished
	s.logStore(store.Record{T: done, BuildID: b.ID})
}

var _ = (*Server).finishQuietly // reached, so only the rule under test trips
