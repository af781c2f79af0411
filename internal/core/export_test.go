package core

import (
	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/trace"
)

// SummaryBackend compiles and runs specs as p's own backend does, but
// when a run succeeds its stored summary is replaced: edit(spec), asked
// at compile time, gets the summary saveRun stores (rebuilt from the
// stored current trace, Rollup mark included) and may change it. A nil
// edit keeps saveRun's summary.
func SummaryBackend(p *Platform, edit func(api.ExperimentSpec) func(*api.RunSummary)) accessserver.SpecBackend {
	return summaryBackend{specBackend{p}, edit}
}

type summaryBackend struct {
	specBackend
	edit func(api.ExperimentSpec) func(*api.RunSummary)
}

func (b summaryBackend) Compile(ws api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	cons, run, err := b.specBackend.Compile(ws)
	if err != nil {
		return cons, nil, err
	}
	edit := b.edit(ws)
	if edit == nil {
		return cons, run, nil
	}
	return cons, func(ctx *accessserver.BuildContext, done func(error)) {
		run(ctx, func(err error) {
			if err == nil {
				err = editSummary(ctx.Build, edit)
			}
			done(err)
		})
	}, nil
}

func editSummary(b *accessserver.Build, edit func(*api.RunSummary)) error {
	data, err := b.Workspace().Load(ArtifactCurrentTrace)
	if err != nil {
		return err
	}
	s, err := trace.DecodeBinary(data)
	if err != nil {
		return err
	}
	sum := api.NewRunSummary(s.Live())
	sum.Rollup = true
	edit(&sum)
	b.SetSummary(sum)
	return nil
}
