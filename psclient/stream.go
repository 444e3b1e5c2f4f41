package psclient

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/wire"
)

// ErrStreamEnded is returned by Stream.Next after the query's terminal
// frame (final or canceled) has been delivered.
var ErrStreamEnded = errors.New("psclient: stream ended")

// Stream follows one query's server-pushed event stream (GET /watch):
// accepted → slot_update* → final|canceled, with gap frames summarizing
// anything the server had to drop. The connection is lazy — dialed on
// the first Next — and self-healing: a dropped connection is transparently
// re-dialed with the stream's last slot cursor, so the server replays
// only what the client has not seen. A Stream is not safe for concurrent
// use; Close may be called from any goroutine to release the connection.
type Stream struct {
	c  *Client
	id string

	cursor    int
	hasCursor bool

	body io.ReadCloser
	sc   *bufio.Scanner

	done     bool
	err      error
	attempts int

	dials int64
	stats StreamStats
}

// StreamStats are a Stream's client-side delivery counters: what
// actually arrived, what the server admitted to dropping, and how often
// the connection had to be re-established. Like the rest of Stream they
// are updated by Next and must not be read concurrently with it.
type StreamStats struct {
	// FramesReceived counts every decoded frame, gap and terminal frames
	// included.
	FramesReceived int64
	// GapFrames counts gap frames seen; DroppedReported sums the events
	// the server reported dropping across them.
	GapFrames       int64
	DroppedReported int64
	// Reconnects counts re-dials after the first successful connect —
	// transparent recoveries from dropped connections or a server
	// restart.
	Reconnects int64
}

// StreamOption customizes a Stream.
type StreamOption func(*Stream)

// WithCursor resumes the stream after the given slot cursor: the server
// replays only frames with a newer cursor. Use it to continue a stream
// across client restarts (within the server's retention window; anything
// older surfaces as a gap frame).
func WithCursor(cursor int) StreamOption {
	return func(s *Stream) {
		s.cursor, s.hasCursor = cursor, true
	}
}

// Stream opens a query's event stream. No connection is made until the
// first Next call.
func (c *Client) Stream(id string, opts ...StreamOption) *Stream {
	s := &Stream{c: c, id: id}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Cursor returns the stream's current slot cursor — the resume point a
// future Stream (or a restarted client) would pass to WithCursor.
func (s *Stream) Cursor() (cursor int, ok bool) { return s.cursor, s.hasCursor }

// Close releases the stream's connection. Subsequent Next calls return
// ErrStreamEnded.
func (s *Stream) Close() error {
	s.done = true
	return s.closeBody()
}

func (s *Stream) closeBody() error {
	if s.body == nil {
		return nil
	}
	err := s.body.Close()
	s.body, s.sc = nil, nil
	return err
}

// A watch connection's line buffer starts at streamBufStart: a frame is
// a few hundred bytes, and the scanner doubles the buffer, up to
// maxStreamFrame, only for a longer one.
const (
	streamBufStart = 4 << 10
	maxStreamFrame = 1 << 20
)

// connect dials GET /watch with the current cursor.
func (s *Stream) connect(ctx context.Context) error {
	path := "/watch?id=" + url.QueryEscape(s.id)
	if s.hasCursor {
		path += "&cursor=" + strconv.Itoa(s.cursor)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.c.base.String()+path, nil)
	if err != nil {
		return fmt.Errorf("psclient: build watch request: %v", err)
	}
	if s.c.clientID != "" {
		req.Header.Set("X-Client-ID", s.c.clientID)
	}
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return &transientError{err}
	}
	if apiErr := checkStatus(resp); apiErr != nil {
		resp.Body.Close()
		if apiErr.StatusCode == http.StatusTooManyRequests || apiErr.StatusCode >= 500 {
			return &transientError{apiErr}
		}
		return apiErr // 4xx (unknown query, bad cursor): not retryable
	}
	s.body = resp.Body
	s.sc = bufio.NewScanner(resp.Body)
	s.sc.Buffer(make([]byte, streamBufStart), maxStreamFrame)
	s.dials++
	if s.dials > 1 {
		s.stats.Reconnects++
	}
	return nil
}

// Stats returns the stream's client-side delivery counters so far.
func (s *Stream) Stats() StreamStats { return s.stats }

// transientError marks connection failures the stream retries.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Next returns the stream's next event frame. It blocks until a frame
// arrives, the context ends, or the reconnect budget (the client's retry
// policy) is exhausted; after the terminal frame every further call
// returns ErrStreamEnded. A server_closing frame is surfaced to the
// caller like any other frame — the following Next transparently
// re-dials (resuming at the cursor), which rides out a rolling restart
// and errors out if the server stays down.
func (s *Stream) Next(ctx context.Context) (wire.EventFrame, error) {
	if s.err != nil {
		return wire.EventFrame{}, s.err
	}
	if s.done {
		return wire.EventFrame{}, ErrStreamEnded
	}
	for {
		if err := ctx.Err(); err != nil {
			return wire.EventFrame{}, err
		}
		if s.body == nil {
			if err := s.connect(ctx); err != nil {
				var te *transientError
				if errors.As(err, &te) && s.retryBackoff(ctx, retryAfterOf(err)) {
					continue
				}
				s.err = err
				return wire.EventFrame{}, err
			}
		}
		if !s.sc.Scan() {
			// EOF or transport error mid-stream: reconnect and resume.
			err := s.sc.Err()
			s.closeBody()
			if s.retryBackoff(ctx, 0) {
				continue
			}
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			s.err = fmt.Errorf("psclient: watch stream for %q disconnected: %w", s.id, err)
			return wire.EventFrame{}, s.err
		}
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		f, err := wire.DecodeEventFrame(line)
		if err != nil {
			// A corrupt frame means the stream is unusable from here on;
			// reconnect from the last good cursor.
			s.closeBody()
			if s.retryBackoff(ctx, 0) {
				continue
			}
			s.err = fmt.Errorf("psclient: watch stream for %q: %w", s.id, err)
			return wire.EventFrame{}, s.err
		}
		s.attempts = 0
		s.stats.FramesReceived++
		if f.Event == wire.FrameGap {
			s.stats.GapFrames++
			s.stats.DroppedReported += int64(f.Dropped)
		}
		// Advance the resume cursor only past content the client has now
		// seen: a gap frame vouches for its dropped range (From..To), not
		// for the event it was emitted in front of.
		switch f.Event {
		case wire.FrameGap:
			if !s.hasCursor || f.To > s.cursor {
				s.cursor, s.hasCursor = f.To, true
			}
		case wire.FrameServerClosing:
			// The server is draining; force a re-dial on the next call.
			s.closeBody()
		default:
			if !s.hasCursor || f.Slot > s.cursor {
				s.cursor, s.hasCursor = f.Slot, true
			}
		}
		if f.Terminal() {
			s.done = true
			s.closeBody()
		}
		return f, nil
	}
}

// retryBackoff sleeps the full-jitter exponential backoff for the
// current attempt — honoring the server's Retry-After hint when the
// failure carried one — and reports whether another attempt is allowed.
func (s *Stream) retryBackoff(ctx context.Context, serverHint time.Duration) bool {
	if s.attempts >= s.c.retries {
		return false
	}
	d := s.c.retryDelay(s.attempts, serverHint)
	s.attempts++
	return s.c.sleep(ctx, d) == nil
}

// retryAfterOf extracts the server's Retry-After hint from a (possibly
// wrapped) *APIError; zero when there is none.
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// All returns a single-use iterator over the remaining frames:
//
//	for ev, err := range st.All(ctx) {
//		if err != nil { ... break ... }
//	}
//
// Iteration stops after the terminal frame (no trailing ErrStreamEnded)
// or yields one final non-nil error.
func (s *Stream) All(ctx context.Context) iter.Seq2[wire.EventFrame, error] {
	return func(yield func(wire.EventFrame, error) bool) {
		for {
			f, err := s.Next(ctx)
			if errors.Is(err, ErrStreamEnded) {
				return
			}
			if err != nil {
				yield(wire.EventFrame{}, err)
				return
			}
			if !yield(f, nil) {
				return
			}
			if f.Terminal() {
				return
			}
		}
	}
}
