package remote

import (
	"context"

	"batterylab/internal/core"
)

// session is a second run handle: it waits on its own build and cancels
// it itself when ctx ends.
type session struct {
	run  core.CampaignRun
	done chan struct{}
}

func (s *session) Wait(ctx context.Context) (*core.Result, error) {
	<-s.done
	return s.run.Result, s.run.Err
}

func (s *session) watch(ctx context.Context, cancel func()) {
	go func() {
		select {
		case <-ctx.Done():
			cancel()
		case <-s.done:
		}
	}()
}

// Reached, so only the rule under test trips.
var _, _ = (*session).Wait, (*session).watch
