package replaycheck

import "dejavu/internal/vm"

// stepLoop runs m to completion one Step at a time: the unfused
// instruction stream, the frame pc and thread mirrors flushed after every
// instruction, and a journal rotation poll at every instruction boundary.
func stepLoop(m *vm.VM) error {
	for {
		done, err := m.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// UseStepLoop makes every run this package starts drive its VM through
// stepLoop instead of Run, until the returned restore func is called.
// Tests that use it must not run in parallel with other runs.
func UseStepLoop() (restore func()) { return UseDriver(stepLoop) }

// UseDriver makes every run this package starts drive its VM through
// drive instead of Run, until the returned restore func is called. Tests
// that use it must not run in parallel with other runs.
func UseDriver(drive func(*vm.VM) error) (restore func()) {
	prev := runVM
	runVM = drive
	return func() { runVM = prev }
}
