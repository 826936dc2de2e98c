package jobs

import (
	"os"
	"sort"
)

// sweepRetention enforces the terminal-checkpoint retention policy:
// with Retain > 0 only the newest-finished Retain terminal jobs are
// kept, and with RetainAge > 0 terminal jobs finished longer ago are
// expired; the two compose. Victims leave the in-memory job table and
// their checkpoint files are deleted — live jobs are never touched. Called from the manager's ticker and
// directly by tests.
func (m *Manager) sweepRetention() {
	if m.cfg.Retain <= 0 && m.cfg.RetainAge <= 0 {
		return
	}
	now := m.now()

	m.mu.Lock()
	var terminal []*Job
	for _, job := range m.jobs {
		job.mu.Lock()
		if job.state.Terminal() {
			terminal = append(terminal, job)
		}
		job.mu.Unlock()
	}
	// Oldest finish first; a zero finishedAt (pre-retention checkpoint
	// without the timestamp) sorts oldest, tie-broken by submission.
	sort.Slice(terminal, func(i, j int) bool {
		if !terminal[i].finishedAt.Equal(terminal[j].finishedAt) {
			return terminal[i].finishedAt.Before(terminal[j].finishedAt)
		}
		return terminal[i].seq < terminal[j].seq
	})
	var victims []*Job
	keep := terminal
	if m.cfg.Retain > 0 && len(keep) > m.cfg.Retain {
		victims = append(victims, keep[:len(keep)-m.cfg.Retain]...)
		keep = keep[len(keep)-m.cfg.Retain:]
	}
	if m.cfg.RetainAge > 0 {
		for _, job := range keep {
			if now.Sub(job.finishedAt) > m.cfg.RetainAge {
				victims = append(victims, job)
			}
		}
	}
	for _, job := range victims {
		delete(m.jobs, job.id)
	}
	m.mu.Unlock()

	for _, job := range victims {
		// Best-effort: a failed unlink resurfaces at the next sweep only
		// as a stray file; the job record itself is already gone.
		_ = os.Remove(checkpointPath(m.cfg.Dir, job.id))
	}
}
