package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"arbods"
	"arbods/internal/graph"
)

// MaxAnswerBytes caps what is read of a solve answer or a graph
// download: the daemon's default upload cap, so the ARBCSR01 body of any
// graph a default daemon accepts fits.
const MaxAnswerBytes = 64 << 20

// minBodyBuf is ReadBody's first buffer when the sender declares no
// smaller length.
const minBodyBuf = 512

// ReadBody reads all of r into one buffer, failing with an
// *http.MaxBytesError once more than limit bytes arrive, or before
// reading anything when the sender declares more. declared is the length
// the sender announced (Content-Length; -1 when unknown). Every body that
// arrives over the wire, on the daemon and in the client, is read
// through it.
//
// The buffer doubles from the bytes actually received, never past
// declared+1, so an honest body fills it exactly, and regrowth copies
// less than twice its size in all, where io.ReadAll's 1.25× steps copy
// about five times. The +1 leaves room for the read that reports EOF. A
// declared length only caps growth: a body that declares 64 MiB and then
// stalls holds a buffer of at most twice what it has sent.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	size := int64(minBodyBuf)
	if declared >= 0 {
		size = min(size, declared+1)
	}
	buf := make([]byte, 0, min(size, limit+1))
	for {
		if len(buf) == cap(buf) {
			size := 2 * int64(len(buf))
			if declared >= int64(len(buf)) {
				size = min(size, declared+1)
			}
			grown := make([]byte, len(buf), min(size, limit+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// StatusError is an answer whose status is not 200 OK, with its body.
type StatusError struct {
	Status int
	Header http.Header
	Body   []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("answered %d %s", e.Status, http.StatusText(e.Status))
}

// ReadAnswer reads resp's body through ReadBody under limit and closes
// it. It returns the body of a 200 OK answer and a *StatusError for any
// other status.
func ReadAnswer(resp *http.Response, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	data, err := ReadBody(resp.Body, resp.ContentLength, limit)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, fmt.Errorf("answer exceeds %d bytes", limit)
	}
	if err != nil {
		return nil, fmt.Errorf("read answer: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Status: resp.StatusCode, Header: resp.Header, Body: data}
	}
	return data, nil
}

// FetchGraph downloads graph id from the daemon at base: GET
// /v1/graphs/{id} with Accept ARBCSR01. The answer must be 200 OK of
// the binary type and at most limit bytes, and its content hash must be
// id; an answer of another status is a *StatusError.
func FetchGraph(ctx context.Context, hc *http.Client, base, id string, limit int64) (*arbods.Graph, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/graphs/"+id, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", BinaryContentType)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode == http.StatusOK && !strings.Contains(ct, BinaryContentType) {
		resp.Body.Close()
		return nil, fmt.Errorf("graph download answered Content-Type %q, want %s", ct, BinaryContentType)
	}
	data, err := ReadAnswer(resp, limit)
	if err != nil {
		return nil, err
	}
	g, got, err := graph.DecodeBinaryID(data)
	if err != nil {
		return nil, fmt.Errorf("decode graph: %w", err)
	}
	if got != id {
		return nil, fmt.Errorf("graph hash mismatch: got %s want %s", got, id)
	}
	return g, nil
}
