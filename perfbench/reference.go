package main

import "fmt"

// unloadedTreePDR is the tree's delivery ratio below capacity: EXPERIMENTS.md
// Fig. 8(b) measures ≥ 0.9998 for producer intervals of 1 s to 30 s.
const unloadedTreePDR = 0.999

func treeReference(p output) (bool, string) {
	ok := p.bufferDrops > 0 && p.pdr.Rate() < unloadedTreePDR
	return ok, fmt.Sprintf("PDR %.3f with %d buffer drops; must show drops and stay below the unloaded tree's %.3f. "+
		"Paper Fig. 9(a): ≈0.75. EXPERIMENTS.md Fig. 9(a): 0.920 at seed 1, 0.71/0.63/0.55 at seeds 11/12/17 (1 h runs).",
		p.pdr.Rate(), p.bufferDrops, unloadedTreePDR)
}

func meshReference(p output) (bool, string) {
	ok := p.reconnects >= uint64(p.reboots)
	return ok, fmt.Sprintf("%d statconn reconnects for %d forwarder reboots; must be at least one per reboot. "+
		"No paper reference: unvalidated beyond that.", p.reconnects, p.reboots)
}

func cityReference(p output) (bool, string) {
	ok := p.pdr.Sent > 0 && p.pdr.Delivered > 0
	return ok, fmt.Sprintf("no paper reference, so unvalidated beyond delivering traffic (%d of %d).",
		p.pdr.Delivered, p.pdr.Sent)
}

// checkReference prints the pooled simulated output beside its reference
// and reports whether it lies inside the workload's band.
func checkReference(w *workload, p output) bool {
	ok, note := w.reference(p)
	verdict := "ok"
	if !ok {
		verdict = "OUT OF BAND"
	}
	fmt.Printf("  reference: %s %s\n", note, verdict)
	return ok
}
