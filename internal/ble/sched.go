package ble

import (
	"blemesh/internal/sim"
)

// Arbitration selects how the radio scheduler resolves overlapping events.
// The Bluetooth standard does not specify a strategy (§2.3 of the paper);
// the two policies below are the paper's choice (i) and choice (ii).
type Arbitration int

const (
	// ArbitrateSkip (choice i): an event whose start falls while the
	// radio is busy is skipped entirely. This is what NimBLE does and
	// what produces supervision timeouts under connection shading.
	ArbitrateSkip Arbitration = iota
	// ArbitrateAlternate (choice ii): when an activity was blocked by the
	// same owner twice in a row, it preempts that owner, so overlapping
	// connections alternate events. Capacity halves but connections
	// survive.
	ArbitrateAlternate
)

func (a Arbitration) String() string {
	if a == ArbitrateAlternate {
		return "alternate"
	}
	return "skip"
}

// Activity is a recurring claim on the node's single radio: one per
// connection, one for advertising. Scanning is the radio's background
// filler and never blocks an activity.
type Activity struct {
	// Name labels the activity in diagnostics.
	Name string
	// NextAnchor returns the simulation time of the activity's next
	// planned radio claim, or 0 when none is planned. The scheduler uses
	// it to bound how long the current owner may keep the radio (this is
	// what truncates connection events, Fig. 4 of the paper).
	NextAnchor func() sim.Time
	// OnPreempt is invoked when ArbitrateAlternate takes the radio away
	// mid-event. The activity must stop using the radio immediately.
	OnPreempt func()

	blockedBy *Activity
}

// SchedStats counts scheduler decisions; skipped events are the observable
// footprint of connection shading.
type SchedStats struct {
	Grants     uint64
	Skips      uint64
	Preempts   uint64
	Truncated  uint64 // grants whose window was cut short by another anchor
	FillerTime sim.Duration
}

// Scheduler arbitrates a node's single radio among its link-layer
// activities. At most one activity owns the radio at a time; an idle radio
// runs the filler (scanning), which yields immediately to any activity.
type Scheduler struct {
	sim   *sim.Sim
	mode  Arbitration
	owner *Activity
	acts  []*Activity
	stats SchedStats

	fillerStart func()
	fillerStop  func()
	fillerOn    bool
	fillerSince sim.Time
}

// Stats returns a copy of the scheduler counters.
func (sd *Scheduler) Stats() SchedStats { return sd.stats }

// Register adds an activity to the anchor bookkeeping.
func (sd *Scheduler) Register(a *Activity) { sd.acts = append(sd.acts, a) }

// Unregister removes an activity. It must not own the radio.
func (sd *Scheduler) Unregister(a *Activity) {
	for i, x := range sd.acts {
		if x == a {
			sd.acts = append(sd.acts[:i], sd.acts[i+1:]...)
			break
		}
	}
	for _, x := range sd.acts {
		if x.blockedBy == a {
			x.blockedBy = nil
		}
	}
	if sd.owner == a {
		sd.owner = nil
		sd.resumeFiller()
	}
}

// SetFiller installs the background scan hooks. start is called whenever the
// radio becomes idle; stop before any activity takes the radio.
func (sd *Scheduler) SetFiller(start, stop func()) {
	sd.fillerStart = start
	sd.fillerStop = stop
	if sd.owner == nil {
		sd.resumeFiller()
	}
}

// ClearFiller removes the background scan hooks.
func (sd *Scheduler) ClearFiller() {
	sd.pauseFiller()
	sd.fillerStart = nil
	sd.fillerStop = nil
}

func (sd *Scheduler) pauseFiller() {
	if sd.fillerOn {
		sd.fillerOn = false
		sd.stats.FillerTime += sd.sim.Now() - sd.fillerSince
		if sd.fillerStop != nil {
			sd.fillerStop()
		}
	}
}

func (sd *Scheduler) resumeFiller() {
	if !sd.fillerOn && sd.fillerStart != nil {
		sd.fillerOn = true
		sd.fillerSince = sd.sim.Now()
		sd.fillerStart()
	}
}

// Acquire requests the radio for activity a from now until at most maxEnd.
// On success it returns the granted end limit: maxEnd further truncated by
// the next planned anchor of any other registered activity (minus one IFS of
// guard time, as the specification requires between events). ok=false means
// the event is skipped — the radio was busy.
func (sd *Scheduler) Acquire(a *Activity, maxEnd sim.Time) (limit sim.Time, ok bool) {
	now := sd.sim.Now()
	if sd.owner != nil {
		if sd.mode == ArbitrateAlternate && a.blockedBy == sd.owner {
			// Second consecutive block by the same owner: preempt it
			// so the two activities alternate.
			victim := sd.owner
			sd.owner = nil
			sd.stats.Preempts++
			if victim.OnPreempt != nil {
				victim.OnPreempt()
			}
			a.blockedBy = nil
		} else {
			a.blockedBy = sd.owner
			sd.stats.Skips++
			return 0, false
		}
	} else {
		a.blockedBy = nil
	}
	sd.pauseFiller()
	sd.owner = a
	sd.stats.Grants++
	limit = maxEnd
	for _, b := range sd.acts {
		if b == a || b.NextAnchor == nil {
			continue
		}
		na := b.NextAnchor()
		if na > now && na-IFS < limit {
			limit = na - IFS
			sd.stats.Truncated++
		}
	}
	if limit < now {
		limit = now
	}
	return limit, true
}

// Owns reports whether a currently holds the radio.
func (sd *Scheduler) Owns(a *Activity) bool { return sd.owner == a }

// Release returns the radio. Releasing without ownership is a no-op (the
// activity may have been preempted).
func (sd *Scheduler) Release(a *Activity) {
	if sd.owner != a {
		return
	}
	sd.owner = nil
	sd.resumeFiller()
}
