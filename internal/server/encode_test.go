package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// encodeDecideOracle is what writeJSON wrote for a 200 decide answer:
// json.NewEncoder's encoding of r.
func encodeDecideOracle(r *DecideResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// checkEncode fails unless appendDecideResponse writes encoding/json's
// bytes for r, or declines exactly where encoding/json refuses r.
func checkEncode(t *testing.T, r *DecideResponse) {
	t.Helper()
	got, ok := appendDecideResponse(nil, r)
	want, err := encodeDecideOracle(r)
	switch {
	case ok != (err == nil):
		t.Fatalf("%+v: appender ok %v, encoding/json error %v", r, ok, err)
	case ok && !bytes.Equal(got, want):
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%+v: bytes differ at %d:\nappender      %q\nencoding/json %q", r, i, got, want)
	}
}

// TestAppendDecideResponseCorners runs the appender against encoding/json
// on its corners: the float format's cutoffs (1e-6, 1e21) and exponent
// trim, signed zeros and extremes, nil and empty slices, an empty plans
// list, and strings that need escaping.
func TestAppendDecideResponseCorners(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, 1e-7, -1.5e-9, 1e21, 9.999999999999999e20,
		1e20, 5e-324, -5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1.2345678901234567e-6,
		-1.2345678901234567e-6, 123456789.123456789, 1e-10, 1.5e-100, 2e300, 0.1, 1, -1, 3e9}
	clock := 1234.5
	for _, r := range []*DecideResponse{
		{},
		{Freqs: []float64{}, Plans: [][]float64{}},
		{Freqs: floats, Count: 1, Layer: "drl", Mode: "guarded", Iter: 7, Clock: clock},
		{Freqs: floats[:3], Plans: [][]float64{floats[:3], nil, {}, floats[3:]}, Count: 4, Layer: "heuristic",
			Mode: "maxfreq", Iter: math.MaxInt32, Clock: 1e21},
		{Freqs: nil, Plans: [][]float64{nil}, Count: -3, Iter: -1, Clock: -1e-7},
		{Layer: "<a&b>\"\\\b\f\n\r\t\x00\x1f\x7f", Mode: "\u2028\u2029\xff\xc3(é\U0001F600"},
	} {
		checkEncode(t, r)
	}
	for _, bad := range []*DecideResponse{
		{Freqs: []float64{1, math.NaN()}},
		{Freqs: []float64{1}, Plans: [][]float64{{math.Inf(1)}}},
		{Clock: math.Inf(-1)},
	} {
		checkEncode(t, bad)
	}
}

// TestDecideAnswerBytes holds a served 200 to writeJSON's answer: for one
// decision and for a "count": 4 batch, over a real connection, the body is
// encoding/json's encoding of the response decoded from it, sent in one
// piece with a Content-Length that equals it, not chunked. At N=200 either
// body is past net/http's 2 KB chunking buffer.
func TestDecideAnswerBytes(t *testing.T) {
	_, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "bytes", N: 200, Seed: 1, Primary: PrimaryFresh})
	for _, count := range []int{0, 4} {
		body, _ := json.Marshal(DecideRequest{Tenant: "bytes", Count: count})
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("count %d: status %d, %v: %s", count, resp.StatusCode, err, got)
		}
		if resp.ContentLength != int64(len(got)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(got)) {
			t.Fatalf("count %d: Content-Length %d (%q) for a %d-byte body", count, resp.ContentLength, resp.Header.Get("Content-Length"), len(got))
		}
		if len(resp.TransferEncoding) != 0 || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("count %d: transfer encoding %v, content type %q", count, resp.TransferEncoding, resp.Header.Get("Content-Type"))
		}
		var dr DecideResponse
		if err := json.Unmarshal(got, &dr); err != nil {
			t.Fatal(err)
		}
		plans := 0
		if count > 1 {
			plans = count
		}
		if dr.Count != max(count, 1) || len(dr.Freqs) != 200 || len(dr.Plans) != plans {
			t.Fatalf("count %d: answer has count %d, %d freqs, %d plans", count, dr.Count, len(dr.Freqs), len(dr.Plans))
		}
		want, err := encodeDecideOracle(&dr)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("count %d: body is not encoding/json's encoding (%v):\n%s\n%s", count, err, got, want)
		}
	}
}

// TestOversizedBodyNotPooled: a body up to one MaxTenantDevices plan of the
// longest floats goes back to the pool; a batch's larger body does not, so
// the pool never pins it.
func TestOversizedBodyNotPooled(t *testing.T) {
	// The longest encoding of a float64, 25 bytes.
	longest := -1.2345678901234567e-6
	if s := appendFloat(nil, longest); len(s) != 25 {
		t.Fatalf("%s is %d bytes, want 25", s, len(s))
	}
	plan := make([]float64, MaxTenantDevices)
	for i := range plan {
		plan[i] = longest
	}
	r := &DecideResponse{Freqs: plan, Count: MaxBatchDecisions, Layer: "heuristic", Mode: "heuristic",
		Iter: math.MaxInt, Clock: longest}
	one, ok := appendDecideResponse(nil, r)
	if !ok || len(one) > maxPooledBody {
		t.Fatalf("one %d-device plan is %d bytes, above the %d-byte pool bound", MaxTenantDevices, len(one), maxPooledBody)
	}
	if !putBody(&one) {
		t.Fatalf("a %d-byte body was not pooled", len(one))
	}

	r.Count, r.Plans = 4, [][]float64{plan, plan, plan, plan}
	rec := httptest.NewRecorder()
	writeDecide(rec, r)
	if rec.Code != http.StatusOK || rec.Body.Len() <= maxPooledBody {
		t.Fatalf("batch answer: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	batch := rec.Body.Bytes()
	if putBody(&batch) {
		t.Fatalf("a %d-byte body was pooled", len(batch))
	}
	// writeDecide left its own batch buffer out of the pool too: the pool
	// hands back the buffer put last on this goroutine's P, which is the
	// one-plan buffer put above or a new one, never the batch's.
	for i := 0; i < 4; i++ {
		if bp := bodyPool.Get().(*[]byte); len(*bp) > maxPooledBody {
			t.Fatalf("pool holds a %d-byte body", len(*bp))
		}
	}
}

// TestLongDeadlineServed: a deadline longer than RequestTimeout means the
// cap, however long. Converting 1e13 ms or more to a Duration overflows
// int64 nanoseconds; such a request was shed as if its budget were spent.
func TestLongDeadlineServed(t *testing.T) {
	s, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "long", N: 3, Primary: PrimaryHeuristic})
	for _, ms := range []float64{1e3, 1e12, 1e13, 1e300} {
		if _, status := decide(t, ts, DecideRequest{Tenant: "long", DeadlineMS: ms}); status != http.StatusOK {
			t.Errorf("deadline_ms %v: status %d, want 200", ms, status)
		}
	}
	if c := s.Counters(); c.ShedDeadline.Load() != 0 || c.Served.Load() != 4 {
		t.Fatalf("shed_deadline %d, served %d", c.ShedDeadline.Load(), c.Served.Load())
	}
}
