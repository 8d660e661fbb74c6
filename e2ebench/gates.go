package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"
)

// errVerify marks a correctness-gate failure: the platform returned
// without error but its output was wrong.
var errVerify = errors.New("verification failed")

// checkInt is the scalar gate: got must equal want.
func checkInt(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("%w: %s = %d, want %d", errVerify, what, got, want)
	}
	return nil
}

// checkAtLeast gates a lower bound.
func checkAtLeast(what string, got, min int64) error {
	if got < min {
		return fmt.Errorf("%w: %s = %d, want at least %d", errVerify, what, got, min)
	}
	return nil
}

// checkBytes gates an echoed payload byte for byte.
func checkBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: %s returned %d bytes that differ from the %d sent", errVerify, what, len(got), len(want))
	}
	return nil
}

// checkInts gates a vector element by element.
func checkInts(what string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %s has %d values, want %d", errVerify, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: %s[%d] = %d, want %d", errVerify, what, i, got[i], want[i])
		}
	}
	return nil
}

// waitZero gates a count that must fall to zero within wait, such as a
// surrogate's live sessions after every client has closed.
func waitZero(what string, count func() int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		n := count()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %s = %d after %v, want 0", errVerify, what, n, wait)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// selfTestGates feeds every gate a wrong expected value and fails unless
// each one fires. It runs at the start of every benchmark run, so a gate
// that silently stopped checking cannot produce a passing run.
func selfTestGates() error {
	jn := jnPinned
	jn.Remote++
	cases := []struct {
		gate string
		err  error
	}{
		{"checkInt", checkInt("x", 1, 2)},
		{"checkAtLeast", checkAtLeast("x", 0, 1)},
		{"checkBytes", checkBytes("x", []byte{1, 2}, []byte{1, 3})},
		{"checkInts", checkInts("x", []int64{1, 2}, []int64{1, 3})},
		{"checkInts/len", checkInts("x", []int64{1}, []int64{1, 1})},
		{"waitZero", waitZero("x", func() int { return 1 }, time.Millisecond)},
		{"checkJavaNote", checkJavaNote(jnPinned, jn)},
		{"checkJavaNote/offloads", checkJavaNote(jnCounts{}, jnPinned)},
	}
	for _, c := range cases {
		if !errors.Is(c.err, errVerify) {
			return fmt.Errorf("gate %s did not fire on a wrong expected value (got %v)", c.gate, c.err)
		}
	}
	ok := []error{
		checkInt("x", 2, 2),
		checkAtLeast("x", 1, 1),
		checkBytes("x", []byte{1}, []byte{1}),
		checkInts("x", []int64{1, 2}, []int64{1, 2}),
		waitZero("x", func() int { return 0 }, time.Millisecond),
		checkJavaNote(jnPinned, jnPinned),
	}
	for i, err := range ok {
		if err != nil {
			return fmt.Errorf("gate %d fired on a correct value: %v", i, err)
		}
	}
	return nil
}
