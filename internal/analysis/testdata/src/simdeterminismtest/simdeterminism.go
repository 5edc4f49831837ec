// Package simdeterminismtest is the simdeterminism golden fixture:
// each // want comment names a substring of the diagnostic the
// analyzer must report on that line.
package simdeterminismtest

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func wallClock() float64 {
	start := time.Now()                // want "wall-clock read time.Now"
	return time.Since(start).Seconds() // want "wall-clock read time.Since"
}

func allowedWallClock() time.Time {
	return time.Now() //lint:allow simdeterminism
}

func globalRand() int {
	return rand.Intn(8) // want "global rand.Intn"
}

func seededRand(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(8)
}

func firstMatch(m map[string]int) (string, error) {
	for k, v := range m {
		if v < 0 {
			return k, fmt.Errorf("negative %s", k) // want "return inside a map range"
		}
	}
	return "", nil
}

func deterministicExistence(m map[string]int, probe string) bool {
	for k := range m {
		if k == probe {
			return true
		}
	}
	return false
}

func printDuringRange(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "output emitted while ranging over a map"
	}
}

func appendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside a map range"
	}
	return keys
}

func appendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func keyedWrite(dst, src map[string]int) {
	for k, v := range src {
		dst[k] = v * 2
	}
}

func hostGoroutine(work func()) {
	go work() // want "go statement spawns a host goroutine"
}

func channelHandshake(n int) int {
	ch := make(chan int, 1) // want "make(chan) in simulated-thread code"
	ch <- n                 // want "channel send in simulated-thread code"
	return <-ch             // want "channel receive in simulated-thread code"
}

//lint:allow simdeterminism host-concurrency fixture: declaration-level opt-out
func allowedHandshake(n int) int {
	ch := make(chan int, 1)
	go func() { ch <- n }()
	return <-ch
}

func makeNotChan(n int) []int {
	return make([]int, n)
}
