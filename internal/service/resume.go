package service

import (
	"context"

	"net/http"
	"repro/internal/bnb"
	"repro/internal/checkpoint"
	"repro/internal/jobs"
)

// ResumeJobs replays the checkpoint directory into the job registry — the
// restart half of the durability story. Terminal records re-enter the
// registry as finished jobs, so pollers keep getting the answers they were
// promised across a restart. Running records are re-submitted under their
// exact original IDs and re-executed from their stored bodies; a bnb
// search's finished subtree roots are injected as a replay map, so only the
// unfinished roots cost anything and the deterministic result is
// byte-identical to an uninterrupted run (sweeps re-run in full — their
// responses carry wall-clock timings, so there is nothing exact to splice).
// Records that cannot be resumed (malformed body, registry collision,
// active-job cap) are rehydrated as failed jobs when possible and skipped
// otherwise; a bad record never prevents the rest from resuming.
//
// Returns the number of running jobs resumed and terminal records
// rehydrated. It is a no-op without CheckpointDir, and is meant to run once
// at startup, before the listener opens.
func (s *Server) ResumeJobs() (resumed, rehydrated int) {
	if s.ckpt == nil {
		return 0, 0
	}
	for _, rec := range s.ckpt.Resumable() {
		switch rec.State {
		case string(jobs.StateDone), string(jobs.StateCanceled), string(jobs.StateFailed):
			// States replay verbatim: a canceled bnb search keeps both its
			// canceled state and the anytime result that rode along; a failed
			// job keeps its recorded failure.
			var failure *jobs.Failure
			if rec.Failure != nil {
				failure = &jobs.Failure{Status: rec.Failure.Status, Code: rec.Failure.Code, Message: rec.Failure.Message}
			} else if rec.State == string(jobs.StateFailed) {
				failure = &jobs.Failure{
					Status:  http.StatusInternalServerError,
					Code:    DefaultErrorCode(http.StatusInternalServerError),
					Message: "job failed before the restart; the failure record was lost",
				}
			}
			if j, err := s.jobs.Rehydrate(rec.JobID, rec.Kind, jobs.State(rec.State), rec.Result, failure); err == nil {
				if st := rec.Stats; st != nil {
					// Restore the terminal progress counters, so a poll after
					// the restart reports the same numbers as one before it.
					p := j.Progress()
					p.Nodes.Store(st.Nodes)
					p.Leaves.Store(st.Leaves)
					p.Pruned.Store(st.Pruned)
					p.Screened.Store(st.Screened)
					p.PointsDone.Store(st.PointsDone)
					p.PointsTotal.Store(st.PointsTotal)
				}
				rehydrated++
			}
		case string(jobs.StatePending), string(jobs.StateRunning):
			if s.resumeRunning(rec) {
				resumed++
			}
		}
	}
	return resumed, rehydrated
}

// resumeRunning re-plans one interrupted job from its stored body and
// restarts it under its original ID.
func (s *Server) resumeRunning(rec checkpoint.Record) bool {
	run, cleanup, err := s.resumePlan(rec)
	if err != nil {
		// The body validated once (it was planned at submission), so a plan
		// failure here means the record is damaged or the world changed (e.g.
		// a by-ID reference whose instance store emptied with the restart).
		// Surface it to pollers as a failed job instead of silently dropping
		// the ID they hold.
		s.jobs.Rehydrate(rec.JobID, rec.Kind, jobs.StateFailed, nil, failureOf(err))
		return false
	}
	j, err := s.jobs.Resume(rec.JobID, rec.Kind, rec.Body, context.Background(), s.opts.JobTimeout)
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		return false
	}
	// Re-register the record with the persister AFTER Resume: jobs.Resume
	// notifies Submitted, which writes a fresh (rootless) record; adopting
	// the loaded one restores the finished roots to the in-memory working
	// set so the next flush carries them again. A crash inside this window
	// only costs the replay — the job re-runs from scratch, still correct.
	s.ckpt.Adopt(rec)
	go s.runDetached(j, run, cleanup)
	return true
}

// resumePlan compiles a checkpointed body back into a runner, injecting the
// finished bnb roots as replay.
func (s *Server) resumePlan(rec checkpoint.Record) (jobRunner, func(), error) {
	var sub JobSubmitRequest
	if err := UnmarshalStrict(rec.Body, &sub); err != nil {
		return nil, nil, err
	}
	switch {
	case rec.Kind == "search" && sub.Search != nil:
		var replay map[int]bnb.Finished
		if len(rec.Roots) > 0 {
			replay = rec.Roots
		}
		return s.searchPlanReplay(sub.Search, replay)
	case rec.Kind == "sweep" && sub.Sweep != nil:
		return s.sweepPlan(sub.Sweep)
	default:
		return nil, nil, badRequest("checkpointed job %q has kind %q but no matching payload", rec.JobID, rec.Kind)
	}
}
