package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// conn is one keep-alive HTTP/1.1 connection to the daemon. Requests are
// written pre-encoded and responses are parsed in place, and the socket is
// driven with blocking system calls on the calling thread rather than
// through the runtime's poller, so a request costs the client a write, a
// ppoll, a read and a header scan, and one thread wake-up; its cost is
// measured on its own by the null-handler rung.
type conn struct {
	addr string
	c    net.Conn
	raw  syscall.RawConn
	r    *bufio.Reader
	body []byte
	// timeout bounds each wait for the socket during a request.
	timeout time.Duration
}

// dial opens a connection to addr.
func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.c != nil {
		c.c.Close()
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		c.c = nil
		return err
	}
	raw, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		nc.Close()
		c.c = nil
		return err
	}
	c.c, c.raw = nc, raw
	if c.r == nil {
		c.r = bufio.NewReaderSize(fdReader{c}, 16<<10)
	} else {
		c.r.Reset(fdReader{c})
	}
	return nil
}

// errPollTimeout reports a socket that stayed unready for a whole timeout.
var errPollTimeout = errors.New("timed out waiting for the socket")

// pollFd is struct pollfd.
type pollFd struct {
	fd      int32
	events  int16
	revents int16
}

const (
	pollIn  = 0x1
	pollOut = 0x4
)

// waitFd blocks the calling thread in ppoll until fd is ready for events.
// Readiness errors (POLLERR, POLLHUP) surface from the read or write that
// follows.
func waitFd(fd uintptr, events int16, timeout time.Duration) error {
	pfd := pollFd{fd: int32(fd), events: events}
	ts := syscall.NsecToTimespec(int64(timeout))
	for {
		n, _, e := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1,
			uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
		switch {
		case e == syscall.EINTR:
			continue
		case e != 0:
			return e
		case n == 0:
			return errPollTimeout
		}
		return nil
	}
}

// fdReader reads the socket with blocking ppoll + read calls.
type fdReader struct{ c *conn }

func (f fdReader) Read(p []byte) (int, error) {
	var n int
	var opErr error
	err := f.c.raw.Read(func(fd uintptr) bool {
		for {
			if opErr = waitFd(fd, pollIn, f.c.timeout); opErr != nil {
				return true
			}
			n, opErr = syscall.Read(int(fd), p)
			if opErr == syscall.EAGAIN || opErr == syscall.EINTR {
				continue
			}
			return true
		}
	})
	if err == nil {
		err = opErr
	}
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// write sends all of b with blocking write + ppoll calls.
func (c *conn) write(b []byte) error {
	var opErr error
	err := c.raw.Write(func(fd uintptr) bool {
		for len(b) > 0 {
			n, err := syscall.Write(int(fd), b)
			switch {
			case err == syscall.EAGAIN:
				if opErr = waitFd(fd, pollOut, c.timeout); opErr != nil {
					return true
				}
				continue
			case err == syscall.EINTR:
				continue
			case err != nil:
				opErr = err
				return true
			}
			b = b[n:]
		}
		return true
	})
	if err == nil {
		err = opErr
	}
	return err
}

// Close releases the connection.
func (c *conn) Close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// errChunkTooBig bounds chunked bodies so a hostile size line cannot make
// the client allocate without limit.
var errChunkTooBig = errors.New("chunk larger than 64 MiB")

// do writes one pre-encoded request and reads the response. The body is
// valid until the next call. A transport error leaves the connection
// redialled for the next request.
func (c *conn) do(req []byte, timeout time.Duration) (status int, body []byte, err error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	c.timeout = timeout
	status, body, err = c.roundTrip(req)
	if err != nil {
		c.Close()
	}
	return status, body, err
}

func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if err := c.write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		if k, v, ok := bytes.Cut(h, []byte(":")); ok {
			v = bytes.TrimSpace(v)
			switch {
			case bytes.EqualFold(k, []byte("Content-Length")):
				if length, err = strconv.Atoi(string(v)); err != nil {
					return 0, nil, fmt.Errorf("bad Content-Length %q", v)
				}
			case bytes.EqualFold(k, []byte("Transfer-Encoding")):
				chunked = bytes.EqualFold(v, []byte("chunked"))
			}
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		return status, c.body, c.readChunked()
	case length >= 0:
		if cap(c.body) < length {
			c.body = make([]byte, length)
		}
		c.body = c.body[:length]
		_, err := io.ReadFull(c.r, c.body)
		return status, c.body, err
	default:
		return 0, nil, errors.New("response has neither Content-Length nor chunked encoding")
	}
}

func (c *conn) readChunked() error {
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		hex, _, _ := bytes.Cut(bytes.TrimSpace(line), []byte(";"))
		n, err := strconv.ParseInt(string(hex), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n > 64<<20 {
			return errChunkTooBig
		}
		if n == 0 {
			// Trailers end with an empty line.
			for {
				t, err := c.r.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(t) <= 2 {
					return nil
				}
			}
		}
		start := len(c.body)
		c.body = append(c.body, make([]byte, n)...)
		if _, err := io.ReadFull(c.r, c.body[start:]); err != nil {
			return err
		}
		if _, err := c.r.Discard(2); err != nil {
			return err
		}
	}
}

// refOutcome is what the gate needs from one /v1/reference response.
type refOutcome struct {
	hit bool
	// payload is the returned payload's string value; hasPayload is false
	// when the response carried none (a miss, or a hit on a set admitted
	// without one).
	payload    []byte
	hasPayload bool
}

var (
	hitTrue    = []byte(`{"hit":true`)
	hitFalse   = []byte(`{"hit":false`)
	payloadKey = []byte(`"payload":`)
)

// parseReference reads a /v1/reference body. The daemon's encoder writes
// one fixed field order, which the fast path scans without allocating;
// anything else goes through encoding/json.
func parseReference(body []byte) (refOutcome, error) {
	var out refOutcome
	switch {
	case bytes.HasPrefix(body, hitTrue):
		out.hit = true
	case bytes.HasPrefix(body, hitFalse):
	default:
		return slowParseReference(body)
	}
	i := bytes.Index(body, payloadKey)
	if i < 0 {
		return out, nil
	}
	rest := body[i+len(payloadKey):]
	if len(rest) == 0 || rest[0] != '"' {
		return slowParseReference(body)
	}
	end := bytes.IndexByte(rest[1:], '"')
	if end < 0 || bytes.IndexByte(rest[1:end+1], '\\') >= 0 {
		return slowParseReference(body)
	}
	out.payload, out.hasPayload = rest[1:end+1], true
	return out, nil
}

func slowParseReference(body []byte) (refOutcome, error) {
	var v struct {
		Hit     bool `json:"hit"`
		Payload any  `json:"payload"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return refOutcome{}, fmt.Errorf("reference response %q: %w", body, err)
	}
	out := refOutcome{hit: v.Hit}
	if v.Payload != nil {
		s, ok := v.Payload.(string)
		if !ok {
			// A non-string payload can never equal a token; keep its JSON
			// so the mismatch report shows it.
			b, _ := json.Marshal(v.Payload)
			s = string(b)
		}
		out.payload, out.hasPayload = []byte(s), true
	}
	return out, nil
}
