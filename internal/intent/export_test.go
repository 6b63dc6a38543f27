package intent

// FailJournal makes every journal call of l named call ("write" or
// "fsync") fail with err from now on, and returns a count of the journal
// calls l makes from now on, failed or not: a failing disk for the tests
// outside the package, which drive l through a control plane.
func FailJournal(l *Log, call string, err error) (calls func() (writes, fsyncs int)) {
	var writes, fsyncs int
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hook = func(c string) error {
		if c == "write" {
			writes++
		} else {
			fsyncs++
		}
		if c == call {
			return err
		}
		return nil
	}
	return func() (int, int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		return writes, fsyncs
	}
}

// RenderState is the rendering the package's tests compare states by.
var RenderState = renderState

// AppendUnchecked journals ops as one frame of l, neither checked nor
// folded: a frame written by hand.
func AppendUnchecked(l *Log, tenant string, ops ...Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.appendLocked(tenant, ops, nil)
	return err
}
