package faultinject

// Network fault injection: a seed-deterministic http.RoundTripper that
// corrupts, truncates, black-holes or slow-drips HTTP responses on their
// way back to the client. The fleet coordinator installs it (the
// ristretto-fleet -net-fault flag) to prove the end-to-end integrity
// pipeline: a corrupted worker response must be caught by the payload
// digest and recomputed elsewhere, never merged.
//
// Decisions are keyed on a hash of the request body (falling back to
// method+URL), not on call order — the same request draws the same fault
// regardless of which retry or worker goroutine sends it. Scope faults to
// one worker with NetSpec.Host, otherwise a deterministic per-request
// fault would follow the cell to every worker it is retried on.

import (
	"bytes"
	"io"
	"net/http"
	"time"
)

// NetSpec describes a deterministic network fault schedule for
// NewTransport. Probabilities are per request in [0,1], decided by
// hashing (Seed, kind, request body).
type NetSpec struct {
	// Seed drives every injection decision, like Spec.Seed.
	Seed int64

	// Host, when non-empty, scopes the faults to requests whose URL host
	// matches exactly (e.g. "127.0.0.1:8081"). Requests to other hosts
	// pass through untouched.
	Host string

	// Corrupt is the probability that a response body is corrupted in
	// flight: one digit inside the body is deterministically rewritten,
	// keeping JSON well-formed while breaking any content digest.
	Corrupt float64

	// Truncate is the probability that a response body is cut short
	// (Content-Length preserved, so the client sees an unexpected EOF).
	Truncate float64

	// BlackHole is the probability that a request is swallowed: no
	// response, no error, until the request's context gives up.
	BlackHole float64

	// SlowDrip is the probability that a response body arrives a few
	// bytes at a time with DripDelay between chunks — a straggler that
	// still completes, for exercising hedged dispatch.
	SlowDrip  float64
	DripDelay time.Duration
}

// ParseNetSpec parses the -net-fault flag syntax (see parseKV), e.g.
//
//	host=127.0.0.1:8081,seed=9,corrupt=1,truncate=0.2,blackhole=0.1,slowdrip=0.3:50ms
//
// slowdrip takes a mandatory :duration suffix. An empty string yields a
// zero NetSpec.
func ParseNetSpec(s string) (NetSpec, error) {
	var spec NetSpec
	err := parseKV(s, map[string]func(string) error{
		"seed":      seedField(&spec.Seed),
		"host":      stringField(&spec.Host),
		"corrupt":   probField(&spec.Corrupt),
		"truncate":  probField(&spec.Truncate),
		"blackhole": probField(&spec.BlackHole),
		"slowdrip":  probDurationField(&spec.SlowDrip, &spec.DripDelay),
	})
	return spec, err
}

// Zero reports whether the spec injects nothing, so callers can skip
// wrapping the transport entirely.
func (s NetSpec) Zero() bool {
	return s.Corrupt == 0 && s.Truncate == 0 && s.BlackHole == 0 && s.SlowDrip == 0
}

// netTransport is the injecting RoundTripper. It only ever mutates the
// response direction: requests reach the server intact, so the server
// computes the true result and the coordinator's verification is what is
// under test.
type netTransport struct {
	spec NetSpec
	base http.RoundTripper
}

// NewTransport wraps base (nil = http.DefaultTransport) with the spec's
// response faults. A zero spec returns base unchanged.
func NewTransport(spec NetSpec, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if spec.Zero() {
		return base
	}
	return &netTransport{spec: spec, base: base}
}

// RoundTrip implements http.RoundTripper.
func (t *netTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.spec.Host != "" && req.URL.Host != t.spec.Host {
		return t.base.RoundTrip(req)
	}
	key := requestKey(req)
	if t.spec.BlackHole > 0 && rollAt(t.spec.Seed, "blackhole", key) < t.spec.BlackHole {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if t.spec.Corrupt > 0 && rollAt(t.spec.Seed, "corrupt", key) < t.spec.Corrupt {
		if err := mutateBody(resp, corruptDigit); err != nil {
			resp.Body.Close()
			return nil, err
		}
		return resp, nil
	}
	if t.spec.Truncate > 0 && rollAt(t.spec.Seed, "truncate", key) < t.spec.Truncate {
		if err := mutateBody(resp, truncateBody); err != nil {
			resp.Body.Close()
			return nil, err
		}
		return resp, nil
	}
	if t.spec.SlowDrip > 0 && rollAt(t.spec.Seed, "slowdrip", key) < t.spec.SlowDrip {
		resp.Body = &dripReader{rc: resp.Body, delay: t.spec.DripDelay, done: req.Context().Done()}
		return resp, nil
	}
	return resp, nil
}

// requestKey hashes what the request asks for. The body (via GetBody, so
// the outgoing stream is untouched) identifies a cell dispatch exactly;
// bodiless requests fall back to method+URL.
func requestKey(req *http.Request) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			b, _ := io.ReadAll(rc)
			rc.Close()
			mix(b)
			return h
		}
	}
	mix([]byte(req.Method))
	mix([]byte(req.URL.String()))
	return h
}

// mutateBody reads the full response body, applies f, and reinstalls the
// result WITHOUT touching Content-Length — a shortened body therefore
// reads as a mid-stream connection loss, exactly like the real fault.
func mutateBody(resp *http.Response, f func([]byte) []byte) error {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	resp.Body = io.NopCloser(bytes.NewReader(f(body)))
	return nil
}

// corruptDigit rewrites one digit in the middle region of the body
// (40%..90%, where a cell response's payload rows live, clear of the
// header fields) so the JSON stays parseable but any digest over the
// content breaks. A body with no digit there is scanned fully; a body
// with no digits at all gets its last byte flipped.
func corruptDigit(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	lo, hi := len(out)*2/5, len(out)*9/10
	for _, span := range [][2]int{{lo, hi}, {0, len(out)}} {
		for i := span[0]; i < span[1]; i++ {
			if out[i] >= '0' && out[i] <= '9' {
				out[i] = '0' + (out[i]-'0'+1)%10
				return out
			}
		}
	}
	out[len(out)-1] ^= 0x20
	return out
}

// truncateBody keeps the first 60% of the body.
func truncateBody(b []byte) []byte {
	return b[:len(b)*3/5]
}

// dripReader delivers the wrapped body dripChunk bytes at a time with a
// delay before each chunk, bailing out promptly when the request context
// is done.
type dripReader struct {
	rc    io.ReadCloser
	delay time.Duration
	done  <-chan struct{}
}

const dripChunk = 64

// Read implements io.Reader.
func (d *dripReader) Read(p []byte) (int, error) {
	select {
	case <-d.done:
		return 0, io.ErrUnexpectedEOF
	case <-time.After(d.delay):
	}
	if len(p) > dripChunk {
		p = p[:dripChunk]
	}
	return d.rc.Read(p)
}

// Close implements io.Closer.
func (d *dripReader) Close() error { return d.rc.Close() }
