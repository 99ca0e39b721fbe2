package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// call is one request of a load schedule.
type call struct {
	id   string        // request ID shared by the request's spans
	due  time.Duration // send time as an offset from the phase start; 0 = at once
	kind string        // "sim" or "model"
	key  int           // index into the workload's key table of that kind
	body []byte
}

// outcome is what happened to one call. Times are offsets from the phase
// start.
type outcome struct {
	sent, done time.Duration
	status     int
	body       []byte
	err        error
}

// latency is the call's latency timed from when it was due, so a stall
// that delays later sends counts against them too.
func (o outcome) latency(c call) time.Duration { return o.done - c.due }

// late is how far behind its schedule the generator sent the call.
func (o outcome) late(c call) time.Duration { return max(o.sent-c.due, 0) }

// clock abstracts time for the generator so its accounting is testable.
type clock interface {
	now() time.Duration // since the phase start
	sleepUntil(d time.Duration)
}

type realClock struct{ start time.Time }

func newRealClock() realClock { return realClock{start: time.Now()} }

func (c realClock) now() time.Duration { return time.Since(c.start) }

func (c realClock) sleepUntil(d time.Duration) {
	if w := d - c.now(); w > 0 {
		time.Sleep(w)
	}
}

// drive sends calls in schedule order from a fixed set of senders, each
// owning one connection: a sender takes the next call, waits until it is
// due, sends it and waits for the reply. With due times the load is an
// open loop (a call that finds every sender busy goes out late, and its
// latency still counts from its due time); with all due times 0 it is a
// closed loop of back-to-back requests. drive returns when every call has
// completed.
func drive(calls []call, senders int, clk clock, send func(c call) (status int, body []byte, err error)) []outcome {
	out := make([]outcome, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				clk.sleepUntil(calls[i].due)
				o := outcome{sent: clk.now()}
				o.status, o.body, o.err = send(calls[i])
				o.done = clk.now()
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}
