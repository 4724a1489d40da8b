package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"primacy/internal/archive"
	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/durable"
)

// tenantArchive is one tenant's cached archive container blob. The entries
// themselves live in the durable store; this caches only the lazily-encoded
// container a get serves, keyed by the store version it was built from, so a
// put never needs to touch it. Rebuilding through archive.NewWriterCtx keeps
// the archive path — entry framing, TOC, checksums — under the same
// deadlines and admission as everything else.
type tenantArchive struct {
	mu sync.Mutex
	// blob is the encoded archive built from store version blobVer; a
	// version mismatch at read time means puts landed since and the blob is
	// rebuilt.
	blob    []byte
	blobVer int64
}

func (s *Server) tenantArchiveFor(tenant string) *tenantArchive {
	s.archMu.Lock()
	defer s.archMu.Unlock()
	ta, ok := s.archives[tenant]
	if !ok {
		ta = &tenantArchive{}
		s.archives[tenant] = ta
	}
	return ta
}

// archiveParams parses ?name= and ?step= (step defaults to 0).
func archiveParams(r *http.Request, needName bool) (string, int, error) {
	name := r.URL.Query().Get("name")
	if name == "" && needName {
		return "", 0, badRequest("missing ?name=", nil)
	}
	step := 0
	if v := r.URL.Query().Get("step"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return "", 0, badRequest(fmt.Sprintf("invalid ?step=%q", v), nil)
		}
		step = n
	}
	return name, step, nil
}

func (s *Server) opArchivePut(req *request) (*response, error) {
	name, step, err := archiveParams(req.r, true)
	if err != nil {
		return nil, err
	}
	if len(req.body) == 0 || len(req.body)%8 != 0 {
		return nil, badRequest(fmt.Sprintf("body length %d is not a non-empty multiple of 8", len(req.body)), nil)
	}
	values, err := bytesplit.BytesToFloat64s(req.body)
	if err != nil {
		return nil, badRequest("decoding float64 payload", err)
	}
	release, err := s.admit(req, int64(len(req.body)))
	if err != nil {
		return nil, err
	}
	defer release()
	// When this returns nil the entry is journaled and fsync'd — the 200 is
	// a durability receipt, not just an acknowledgement.
	if err := s.store.Put(req.ctx, req.tenant, name, step, values, s.cfg.MaxArchiveBytes); err != nil {
		switch {
		case errors.Is(err, durable.ErrExists):
			return nil, &httpError{status: http.StatusConflict,
				msg: fmt.Sprintf("entry %s@%d already archived", name, step)}
		case errors.Is(err, durable.ErrOverBudget):
			return nil, &httpError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("tenant archive budget %d bytes exceeded", s.cfg.MaxArchiveBytes),
			}
		}
		return nil, fmt.Errorf("archiving %s@%d: %w", name, step, err)
	}
	return &response{body: []byte(fmt.Sprintf("archived %s@%d (%d values)\n", name, step, len(values)))}, nil
}

func (s *Server) opArchiveGet(req *request) (*response, error) {
	name, step, err := archiveParams(req.r, false)
	if err != nil {
		return nil, err
	}
	opts, err := s.codecOptions(req.r)
	if err != nil {
		return nil, err
	}
	// Admission is acquired before any tenant lock: a get queued behind the
	// fair-share gate must never hold the archive mutex while waiting, or a
	// saturated admitter would wedge every put for the tenant.
	rawBytes := s.store.RawBytes(req.tenant)
	if rawBytes == 0 {
		return nil, &httpError{status: http.StatusNotFound, msg: "tenant has no archived entries"}
	}
	release, err := s.admit(req, rawBytes)
	if err != nil {
		return nil, err
	}
	defer release()
	ta := s.tenantArchiveFor(req.tenant)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	entries, ver := s.store.Snapshot(req.tenant)
	if len(entries) == 0 {
		return nil, &httpError{status: http.StatusNotFound, msg: "tenant has no archived entries"}
	}
	if ta.blob == nil || ta.blobVer != ver {
		blob, err := buildArchive(req, entries, opts)
		if err != nil {
			return nil, err
		}
		ta.blob = blob
		ta.blobVer = ver
	}
	if name == "" {
		// Whole-archive download: hand out a copy, never the cached slice —
		// a caller mutating the body must not poison every later download.
		return &response{body: append([]byte(nil), ta.blob...)}, nil
	}
	rd, err := archive.NewReader(bytes.NewReader(ta.blob), int64(len(ta.blob)))
	if err != nil {
		return nil, fmt.Errorf("reopening tenant archive: %w", err)
	}
	values, err := rd.GetFloat64s(req.ctx, name, step)
	if err != nil {
		return nil, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("entry %s@%d", name, step), err: err}
	}
	return &response{body: bytesplit.Float64sToBytes(values)}, nil
}

// buildArchive encodes entries into an archive container under the request's
// deadline.
func buildArchive(req *request, entries []durable.Entry, opts core.Options) ([]byte, error) {
	var buf bytes.Buffer
	w, err := archive.NewWriterCtx(req.ctx, &buf, opts)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := w.PutFloat64s(e.Name, e.Step, e.Values); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
