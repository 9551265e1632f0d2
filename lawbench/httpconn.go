package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"lawgate/internal/server"
)

// conn is one client connection: a minimal HTTP/1.1 client over a
// single keep-alive TCP connection, with buffers reused across
// requests. The generator shares the process (and its two CPUs and
// garbage collector) with the server under test, so it is kept lean:
// net/http's client costs tens of allocations per request, which
// showed up as extra collections and generator stalls in the tail
// latencies this benchmark exists to measure.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	head []byte // request head, plus the body when it is small
	hdr  []byte // extra header lines of the current request
	body []byte // generated request body
	resp []byte // response body
}

// inlineBody is the largest body written before the reply is read: the
// server reads a body up to its cap in full. A larger one is written
// while the reply is read, because the server answers 413 and stops
// reading before the body is sent.
const inlineBody = server.DefaultMaxBody

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// roundTrip sends one request — c.hdr holds its extra header lines, each
// ending in CRLF — and reads the reply into c.resp.
func (c *conn) roundTrip(method, path string, body []byte) (int, error) {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, err
		}
		c.nc = nc
		if c.br == nil {
			c.br = bufio.NewReaderSize(nc, 64<<10)
		} else {
			c.br.Reset(nc)
		}
	}
	if err := c.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		c.close()
		return 0, err
	}
	h := append(c.head[:0], method...)
	h = append(h, ' ')
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: lawbench\r\n"...)
	h = append(h, c.hdr...)
	if body != nil {
		h = append(h, "Content-Type: application/json\r\nContent-Length: "...)
		h = strconv.AppendInt(h, int64(len(body)), 10)
		h = append(h, "\r\n"...)
	}
	h = append(h, "\r\n"...)
	var wrote chan error
	if len(body) <= inlineBody {
		h = append(h, body...)
	}
	c.head = h
	if _, err := c.nc.Write(h); err != nil {
		c.close()
		return 0, err
	}
	if len(body) > inlineBody {
		wrote = make(chan error, 1)
		go func(nc net.Conn) {
			_, err := nc.Write(body)
			wrote <- err
		}(c.nc)
	}
	status, keep, err := c.readResponse()
	if wrote != nil {
		// The server answered before reading the whole body, so the
		// connection cannot be reused; closing it also ends the writer
		// the server stopped reading from.
		keep = false
		c.close()
		<-wrote
	}
	if err != nil || !keep {
		c.close()
	}
	return status, err
}

// readLine returns the next header line without its CRLF. The slice is
// valid until the next read.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// readResponse reads a status line, headers and a Content-Length or
// chunked body. keep reports whether the connection may be reused.
func (c *conn) readResponse() (status int, keep bool, err error) {
	line, err := c.readLine()
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		if line, err = c.readLine(); err != nil {
			return status, false, err
		}
		if len(line) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte{':'})
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return status, false, fmt.Errorf("malformed Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keep = !bytes.EqualFold(v, []byte("close"))
		}
	}
	c.resp = c.resp[:0]
	switch {
	case chunked:
		for {
			if line, err = c.readLine(); err != nil {
				return status, false, err
			}
			size, _, _ := bytes.Cut(line, []byte{';'})
			n, perr := strconv.ParseInt(string(size), 16, 64)
			if perr != nil || n < 0 {
				return status, false, fmt.Errorf("malformed chunk size %q", line)
			}
			if n == 0 {
				// Trailers, then the blank line ending the message.
				for {
					if line, err = c.readLine(); err != nil {
						return status, false, err
					}
					if len(line) == 0 {
						return status, keep, nil
					}
				}
			}
			if err = c.readBody(int(n)); err != nil {
				return status, false, err
			}
			if line, err = c.readLine(); err != nil || len(line) != 0 {
				return status, false, fmt.Errorf("malformed chunk end")
			}
		}
	case length >= 0:
		return status, keep, c.readBody(length)
	default:
		// No length: the body runs to the end of the connection.
		b, err := io.ReadAll(c.br)
		c.resp = append(c.resp, b...)
		return status, false, err
	}
}

// readBody appends the next n body bytes to c.resp.
func (c *conn) readBody(n int) error {
	off := len(c.resp)
	if cap(c.resp)-off < n {
		grown := make([]byte, off, 2*cap(c.resp)+n)
		copy(grown, c.resp)
		c.resp = grown
	}
	c.resp = c.resp[:off+n]
	_, err := io.ReadFull(c.br, c.resp[off:])
	return err
}
