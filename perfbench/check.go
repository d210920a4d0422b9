package main

import (
	"fmt"
	"math"

	"misusedetect/internal/actionlog"
	"misusedetect/internal/core"
)

// alarmIdentity is everything an alarm asserts about its event; two
// alarms agree only when all of it agrees, the likelihood to the bit.
type alarmIdentity struct {
	session  string
	position int
	kind     string
	cluster  int
	likBits  uint64
}

// checkAlarms replays the sampled sessions' events serially through
// Detector.ReplaySerial, the reference the engine is byte-identical to,
// and compares its alarms with the alarms the run received for those
// sessions. Reference alarms raised by the first skip recorded events
// are not compared (events played while no alarm was collected, like
// engine_resident's fill). It returns the number of alarms found on one
// side only.
func checkAlarms(det *core.Detector, mcfg core.MonitorConfig, record []actionlog.Event, skip int, got []alarmRec) (int, error) {
	ref, err := det.ReplaySerial(mcfg, record)
	if err != nil {
		return 0, fmt.Errorf("reference replay: %w", err)
	}
	want := make(map[alarmIdentity]int)
	for _, a := range ref {
		if a.Seq > uint64(skip) {
			want[alarmIdentity{a.SessionID, a.Position, a.Kind, a.Cluster, math.Float64bits(a.Likelihood)}]++
		}
	}
	mismatches := 0
	for _, a := range got {
		if !sampled(a.session) {
			continue
		}
		k := alarmIdentity{a.session, a.position, a.kind, a.cluster, a.likBits}
		if want[k] > 0 {
			want[k]--
		} else {
			mismatches++
		}
	}
	for _, n := range want {
		mismatches += n
	}
	return mismatches, nil
}
