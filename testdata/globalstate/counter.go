// Package globalstate is a fixture for the package-level state audit: a
// mutable counter shared by every caller in the process, the kind of state
// that leaks one run's ordering into the next.
package globalstate

// requestSeq numbers requests across every simulation in the process.
var requestSeq uint64

// kindNames is a read-only table with an allowlisted name.
var kindNames = [...]string{"a", "b"}

// Next returns the next process-wide request number.
func Next() uint64 {
	requestSeq++
	return requestSeq + uint64(len(kindNames))
}
