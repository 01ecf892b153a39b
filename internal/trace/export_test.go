package trace

// CountEvents drains r and returns how many switch entries and data events
// (EvEnd included) it holds, without checking native-call ids — the same
// units a RecoverReport counts.
func CountEvents(r *Reader) (switches, events int) {
	for {
		if _, ok := r.NextSwitch(); !ok {
			break
		}
		switches++
	}
	for {
		k, err := r.Peek()
		if err != nil || r.skipEvent(k) != nil {
			return switches, events
		}
		events++
		if k == EvEnd {
			return switches, events
		}
	}
}
