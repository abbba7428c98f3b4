package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// decodeDecideOracle is the encoding/json decoding of a decide request that
// DecodeDecideRequest must reproduce: strict decoding (unknown fields and
// trailing data rejected), the scanner's one divergence (a null element of
// last_bw or down is an error), then Validate.
func decodeDecideOracle(data []byte) (*DecideRequest, error) {
	var r DecideRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := rejectNullElements(data); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// rejectNullElements walks a request that decodeStrict accepted, so a flat
// object of known fields, and fails on a null array element under a key
// that encoding/json maps to last_bw or down (equal under case folding).
func rejectNullElements(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if _, err := dec.Token(); err != nil {
		return err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		name, _ := key.(string)
		list := strings.EqualFold(name, "last_bw") || strings.EqualFold(name, "down")
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if tok != json.Delim('[') {
			continue
		}
		for dec.More() {
			el, err := dec.Token()
			if err != nil {
				return err
			}
			if el == nil && list {
				return fmt.Errorf("null element in %q", name)
			}
		}
		if _, err := dec.Token(); err != nil {
			return err
		}
	}
	return nil
}

// diffRequest describes the first difference between two decoded requests,
// or returns "". Floats compare by bits (so -0 differs from 0), and slices
// by nil-ness, length and elements.
func diffRequest(a, b *DecideRequest) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	samePtr := func(x, y *float64) bool { return (x == nil) == (y == nil) && (x == nil || same(*x, *y)) }
	switch {
	case a.Tenant != b.Tenant:
		return fmt.Sprintf("tenant %q vs %q", a.Tenant, b.Tenant)
	case !samePtr(a.Clock, b.Clock):
		return "clock differs"
	case !samePtr(a.ObservedCost, b.ObservedCost):
		return "observed_cost differs"
	case !same(a.DeadlineMS, b.DeadlineMS):
		return fmt.Sprintf("deadline_ms %v vs %v", a.DeadlineMS, b.DeadlineMS)
	case a.Count != b.Count:
		return fmt.Sprintf("count %d vs %d", a.Count, b.Count)
	case (a.LastBW == nil) != (b.LastBW == nil) || len(a.LastBW) != len(b.LastBW):
		return fmt.Sprintf("last_bw %v vs %v", a.LastBW, b.LastBW)
	case (a.Down == nil) != (b.Down == nil) || len(a.Down) != len(b.Down):
		return fmt.Sprintf("down %v vs %v", a.Down, b.Down)
	}
	for i := range a.LastBW {
		if !same(a.LastBW[i], b.LastBW[i]) {
			return fmt.Sprintf("last_bw[%d] %v vs %v", i, a.LastBW[i], b.LastBW[i])
		}
	}
	for i := range a.Down {
		if a.Down[i] != b.Down[i] {
			return fmt.Sprintf("down[%d] %v vs %v", i, a.Down[i], b.Down[i])
		}
	}
	return ""
}

// checkAgainstOracle fails unless DecodeDecideRequest and the oracle agree
// on accept/reject and on every decoded value, and returns the decoded
// request (nil when rejected).
func checkAgainstOracle(t *testing.T, data []byte) *DecideRequest {
	t.Helper()
	got, err := DecodeDecideRequest(data)
	want, werr := decodeDecideOracle(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("input %q: scanner error %v, encoding/json error %v", data, err, werr)
	}
	if err != nil {
		return nil
	}
	if d := diffRequest(got, want); d != "" {
		t.Fatalf("input %q: scanner and encoding/json disagree: %s", data, d)
	}
	if verr := got.Validate(); verr != nil {
		t.Fatalf("input %q: accepted decide request fails its own validation: %v", data, verr)
	}
	return got
}

// decodeCorners are the encoding/json behaviours the scanner must match.
var decodeCorners = []string{
	// Keys fold case under Unicode simple folding: K (Kelvin) and ſ (long s).
	`{"TENANT": "a", "CLOCK": 5}`,
	"{\"tenant\": \"a\", \"cloc\u212a\": 5}",
	"{\"tenant\": \"a\", \"observed_co\u017ft\": 1.5}",
	`{"tenant": "a", "Last_BW": [1], "DOWN": [true]}`,
	// Escaped keys and values.
	`{"t\u0065nant": "\u0061lpha", "\u0063lock": 1}`,
	`{"tenant": "a", "cloc\u212a": 2, "observed_co\u017Ft": 3}`,
	`{"tenant": "a\/b"}`,
	`{"tenant": "a\ud800"}`,
	`{"tenant": "a\ud83d\ude00"}`,
	`{"tenant": "\"a"}`,
	`{"tenant": "a\x"}`,
	`{"tenant": "a\u00"}`,
	// Duplicate keys: the last wins.
	`{"tenant": "a", "tenant": "b", "clock": 1, "clock": 2}`,
	`{"tenant": "a", "clock": 1, "clock": null}`,
	`{"tenant": "a", "tenant": null, "observed_cost": 2, "observed_cost": null}`,
	`{"tenant": "a", "deadline_ms": 5, "deadline_ms": null, "count": 3, "count": null}`,
	// null for every field.
	`{"tenant": null, "clock": null, "last_bw": null, "down": null, "deadline_ms": null, "observed_cost": null, "count": null}`,
	`{"tenant": "a", "clock": null, "last_bw": null, "down": null, "deadline_ms": null, "observed_cost": null, "count": null}`,
	// A null element is an error: the scanner's one divergence from
	// encoding/json, which the oracle applies too.
	`{"tenant": "a", "last_bw": [1, null, 3], "down": [null, true]}`,
	`{"tenant": "a", "last_bw": [1, 2, 3], "last_bw": [4], "last_bw": [null, null]}`,
	`{"tenant": "a", "down": [true, false, true], "down": [false], "down": [null, null, null, null]}`,
	`{"tenant": "a", "last_bw": [1, 2], "last_bw": [], "last_bw": [null]}`,
	`{"tenant": "a", "last_bw": [1, 2], "last_bw": null, "last_bw": [null, null]}`,
	`{"tenant": "a", "last_bw": [], "down": []}`,
	// Numbers.
	`{"tenant": "a", "clock": 1e400}`,
	`{"tenant": "a", "count": 1.0}`,
	`{"tenant": "a", "count": 1e2}`,
	`{"tenant": "a", "count": -0, "deadline_ms": -0}`,
	`{"tenant": "a", "clock": -0, "observed_cost": -0.0, "last_bw": [-0, 1e-400, -1e-400, 5e-324]}`,
	`{"tenant": "a", "count": 99999999999999999999}`,
	`{"tenant": "a", "clock": 01}`,
	`{"tenant": "a", "clock": 1.}`,
	`{"tenant": "a", "clock": .5}`,
	`{"tenant": "a", "clock": +1}`,
	`{"tenant": "a", "clock": 1e}`,
	`{"tenant": "a", "clock": -}`,
	`{"tenant": "a", "clock": 1E+2, "deadline_ms": 2.5e-1}`,
	// Byte-order mark, trailing data and whitespace.
	"\xef\xbb\xbf{\"tenant\": \"a\"}",
	`{"tenant": "a"} {}`,
	`{"tenant": "a"}}`,
	"\t\r\n {\"tenant\"\n:\r\"a\"\t} \n",
	// Wrong types and syntax.
	`{"tenant": "a", "last_bw": [[1]]}`,
	`{"tenant": "a", "down": [1]}`,
	`{"tenant": ["a"]}`,
	`{"tenant": "a", "last_bw": [1,]}`,
	`{"tenant": "a",}`,
	`{"tenant": "a", "clock": nul}`,
	`{"tenant": "a", "clock": nullx}`,
	"{\"tenant\": \"a\tb\"}",
	`{"tenant": "a", "": 1}`,
	`null`,
	`[]`,
	`"a"`,
	` `,
}

// FuzzDecodeRequest holds DecodeDecideRequest to the encoding/json oracle:
// on any input both must accept or both reject, and an accepted request
// must decode to the same values (floats by bits) and pass its own
// Validate. It also pins that the tenant-spec decoder never panics and
// accepts only specs that validate.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"tenant": "alpha"}`))
	f.Add([]byte(`{"tenant": "alpha", "clock": 120, "deadline_ms": 250}`))
	f.Add([]byte(`{"tenant": "alpha", "last_bw": [1e6, 2e6, 3e6], "down": [false, true, false]}`))
	f.Add([]byte(`{"tenant": "alpha", "observed_cost": 5.5}`))
	f.Add([]byte(`{"name": "alpha", "n": 3, "primary": "fresh"}`))
	f.Add([]byte(`{"tenant": "alpha"} trailing`))
	f.Add([]byte(`{"tenant": "../etc"}`))
	f.Add([]byte(`{"tenant": "a", "clock": -1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	for _, c := range decodeCorners {
		f.Add([]byte(c))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
		if spec, err := DecodeRegisterRequest(data); err == nil {
			if verr := spec.Validate(); verr != nil {
				t.Fatalf("accepted tenant spec fails its own validation: %v", verr)
			}
		}
	})
}

// FuzzParseTenantSpecs holds the -tenants file and reload parser to its
// contract on arbitrary input: it never panics, a rejection is an error
// that names the server, and every accepted list validates and comes back
// unchanged from a json.Marshal round trip through the parser.
func FuzzParseTenantSpecs(f *testing.F) {
	for _, seed := range []string{
		`[]`,
		`null`,
		`[{"name": "a", "n": 3}]`,
		`[{"name": "a", "n": 3, "lambda": 0.5, "seed": 7, "primary": "fresh", "fallback": "maxfreq",
		  "ood_threshold": -1, "rate": 100, "burst": 8, "queue_cap": 16, "tick_sec": 5}]`,
		`[{"NAME": "b", "N": 4096, "Primary": "heuristic", "lambda": -0, "fallback": "\ud800x"}]`,
		`[{"name": "a", "n": 3}, {"name": "a", "n": 4}]`,
		`[{"name": "a", "n": 3, "bogus": 1}]`,
		`[{"name": "a", "n": 0}]`,
		`[{"name": "a/b", "n": 3}]`,
		`[{"name": "a", "n": 3, "rate": 1e400}]`,
		`[{"name": "a", "n": 3}] trailing`,
		`{"name": "a", "n": 3}`,
		`[{"name": "a", "n": 3.5}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseTenantSpecs(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "server: ") {
				t.Fatalf("error without context: %v", err)
			}
			return
		}
		for i := range specs {
			if verr := specs[i].Validate(); verr != nil {
				t.Fatalf("accepted spec %d fails its own validation: %v", i, verr)
			}
		}
		again, err := json.Marshal(specs)
		if err != nil {
			t.Fatalf("accepted specs do not marshal: %v", err)
		}
		back, err := ParseTenantSpecs(again)
		if err != nil {
			t.Fatalf("re-marshaled specs %s rejected: %v", again, err)
		}
		if !reflect.DeepEqual(back, specs) {
			t.Fatalf("round trip changed the specs:\n%+v\n%+v", specs, back)
		}
	})
}

// FuzzRestoreSnapshot holds the registry snapshot loader to its contract on
// arbitrary file bytes: it never panics, an error names the server, every
// tenant it registers resumes from iter ≥ 0 and a finite clock ≥ 0, and
// saving the restored registry and restoring that file gives the same rows.
func FuzzRestoreSnapshot(f *testing.F) {
	for _, seed := range []string{
		`{"version": 1, "tenants": [{"spec": {"name": "a", "n": 3, "primary": "fresh"}, "iter": 4, "clock": 40}]}`,
		`{"version": 1, "tenants": [{"spec": {"name": "a", "n": 2, "primary": "heuristic", "tick_sec": 5}, "iter": 0, "clock": 0},
		  {"spec": {"name": "b", "n": 2, "primary": "drl"}, "iter": 1, "clock": 1}]}`,
		`{"version": 1, "tenants": [{"spec": {"name": "a", "n": 3}, "iter": -3, "clock": 1}]}`,
		`{"version": 1, "tenants": [{"spec": {"name": "a", "n": 3}, "iter": 9223372036854775807, "clock": 1}]}`,
		`{"version": 1, "tenants": [{"spec": {"name": "a", "n": 3}, "iter": 1, "clock": -5}]}`,
		`{"version": 1, "tenants": [{"spec": {"name": "a", "n": 3}}, {"spec": {"name": "a", "n": 2}}]}`,
		`{"version": 1, "tenants": [{"spec": {"name": "a", "n": 3}, "clock": 1e400}]}`,
		`{"version": 1, "tenants": null}`,
		`{"version": 2, "tenants": []}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A tenant builds 32 KB of trace per device, an actor sized by its
		// fleet and a queue of up to 2^20 slots, so bound what one input
		// may build; fleet and queue bounds are FuzzParseTenantSpecs's.
		var probe Snapshot
		if json.Unmarshal(data, &probe) == nil {
			devices := 0
			for _, ts := range probe.Tenants {
				devices += max(ts.Spec.N, 0)
			}
			if len(probe.Tenants) > 8 || devices > 64 {
				t.Skip("fleet too large for a fuzz input")
			}
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "reg.snap.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(DefaultServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.BeginDrainForTest(t)
		restored, err := s.RestoreSnapshot(path)
		if err != nil && !strings.HasPrefix(err.Error(), "server: ") {
			t.Fatalf("error without context: %v", err)
		}
		snap := s.snapshot()
		if len(snap.Tenants) != restored {
			t.Fatalf("restored %d tenants, registry holds %d", restored, len(snap.Tenants))
		}
		for _, ts := range snap.Tenants {
			if ts.Iter < 0 || math.IsNaN(ts.Clock) || math.IsInf(ts.Clock, 0) || ts.Clock < 0 {
				t.Fatalf("tenant %q restored at iter %d, clock %v", ts.Spec.Name, ts.Iter, ts.Clock)
			}
		}
		again := filepath.Join(dir, "again.snap.json")
		if err := s.SaveSnapshot(again); err != nil {
			t.Fatal(err)
		}
		s2, err := New(DefaultServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s2.BeginDrainForTest(t)
		if n, err := s2.RestoreSnapshot(again); err != nil || n != restored {
			t.Fatalf("saved snapshot restored %d of %d tenants: %v", n, restored, err)
		}
		if back := s2.snapshot(); !reflect.DeepEqual(back, snap) {
			t.Fatalf("round trip changed the rows:\n%+v\n%+v", snap.Tenants, back.Tenants)
		}
	})
}

// TestDecodeDecideRequestSemantics pins the decoded values of the
// duplicate-key corners and the rejection of null elements, beside the
// oracle's agreement.
func TestDecodeDecideRequestSemantics(t *testing.T) {
	for _, tc := range []struct {
		body   string
		lastBW string
		down   string
	}{
		{`{"tenant": "a", "last_bw": [1, 2, 3], "last_bw": [4]}`, "[4]", "[]"},
		{`{"tenant": "a", "down": [true, false, true], "down": [false]}`, "[]", "[false]"},
		{`{"tenant": "a", "last_bw": [1, 2], "last_bw": [], "down": [true], "down": null}`, "[]", "[]"},
		{`{"tenant": "a", "last_bw": [-0]}`, "[-0]", "[]"},
	} {
		r := checkAgainstOracle(t, []byte(tc.body))
		if r == nil {
			t.Fatalf("%s: rejected", tc.body)
		}
		if got := fmt.Sprint(r.LastBW); got != tc.lastBW {
			t.Fatalf("%s: last_bw %s, want %s", tc.body, got, tc.lastBW)
		}
		if got := fmt.Sprint(r.Down); got != tc.down {
			t.Fatalf("%s: down %s, want %s", tc.body, got, tc.down)
		}
	}
	for _, body := range []string{
		`{"tenant": "a", "last_bw": [1, null, 3]}`,
		`{"tenant": "a", "down": [null, true]}`,
		`{"tenant": "a", "last_bw": [1, 2, 3], "last_bw": [4], "last_bw": [null, null]}`,
		`{"tenant": "a", "LAST_BW": [1, 2], "last_bw": null, "Last_bw": [null]}`,
	} {
		if _, err := DecodeDecideRequest([]byte(body)); err == nil {
			t.Fatalf("%s: null element accepted", body)
		}
		checkAgainstOracle(t, []byte(body))
	}
	r := checkAgainstOracle(t, []byte("{\"tenant\": \"a\", \"cloc\u212a\": 7, \"CLOCK\": 8}"))
	if r == nil || r.Clock == nil || *r.Clock != 8 {
		t.Fatalf("folded duplicate clock: %+v", r)
	}
}

// TestDecodeDecideRequestFleetBodies runs the differential check on bodies
// shaped like a fleet client's: N devices of realized bandwidth, as
// json.Marshal renders them, including the values at float64's edges.
func TestDecodeDecideRequestFleetBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := []float64{0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1e21, 1e-7, 123456789.123456789}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(MaxTenantDevices)
		clock := rng.Float64() * 1e6
		req := DecideRequest{Tenant: "fleet-" + fmt.Sprint(trial), Clock: &clock, LastBW: make([]float64, n), DeadlineMS: float64(rng.Intn(500))}
		for i := range req.LastBW {
			req.LastBW[i] = rng.ExpFloat64() * 3e6
			if rng.Intn(50) == 0 {
				req.LastBW[i] = edges[rng.Intn(len(edges))]
			}
		}
		if trial%3 == 0 {
			req.Down = make([]bool, n)
			for i := range req.Down {
				req.Down[i] = rng.Intn(7) == 0
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if checkAgainstOracle(t, body) == nil {
			t.Fatalf("trial %d: fleet body rejected", trial)
		}
	}
}

// TestDecodeCommaFloodBounded feeds bodies that open last_bw or down and
// then repeat commas up to the size bound. Both decoders reject them; the
// scanner's array-size hint must not turn the commas into an allocation of
// many times the body.
func TestDecodeCommaFloodBounded(t *testing.T) {
	for _, key := range []string{"last_bw", "down"} {
		head := `{"tenant": "a", "` + key + `": [`
		body := []byte(head + strings.Repeat(",", MaxRequestBytes-len(head)-2) + "]}")
		if checkAgainstOracle(t, body) != nil {
			t.Fatalf("%s comma flood accepted", key)
		}
		per := bytesPerRun(10, func(int) {
			if _, err := DecodeDecideRequest(body); err == nil {
				t.Fatalf("%s comma flood accepted", key)
			}
		})
		if bound := uint64(8*MaxTenantDevices + 16<<10); per > bound {
			t.Errorf("%s: a %d-byte comma flood allocates %d bytes per decode, bound %d", key, len(body), per, bound)
		}
	}
}

// BenchmarkDecodeDecideRequest decodes a 1000-device body (tenant, clock,
// last_bw), the serving fleet's request, with the scanner and with the
// encoding/json oracle.
func BenchmarkDecodeDecideRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	clock := 1230.0
	req := DecideRequest{Tenant: "t0", Clock: &clock, LastBW: make([]float64, 1000)}
	for i := range req.LastBW {
		req.LastBW[i] = rng.ExpFloat64() * 3e6
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) (*DecideRequest, error)
	}{{"scanner", DecodeDecideRequest}, {"encoding-json", decodeDecideOracle}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeDecideResponse encodes the serving fleet's answer, one
// plan of 1000 frequencies, with the pooled appender writeDecide uses and
// with encoding/json. Once the pool is warm the appender allocates nothing.
func BenchmarkEncodeDecideResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := &DecideResponse{Freqs: make([]float64, 1000), Count: 1, Layer: "drl", Mode: "guarded", Iter: 4321, Clock: 1230}
	for i := range r.Freqs {
		r.Freqs[i] = 1e9 + rng.Float64()*1e9
	}
	b.Run("appender", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bp := bodyPool.Get().(*[]byte)
			body, ok := appendDecideResponse((*bp)[:0], r)
			if !ok {
				b.Fatal("refused")
			}
			*bp = body
			putBody(bp)
			b.SetBytes(int64(len(body)))
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(r); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
}

// FuzzEncodeDecideResponse holds the response appender to encoding/json on
// arbitrary responses: the same bytes, or a refusal exactly where
// encoding/json refuses (a NaN or an infinity). Frequencies come from the
// input's 8-byte words; non-finite ones become 0 unless the top bit of
// plans is set, so most inputs are encodable. The low bits of plans pick up
// to three plans, each a window of the frequencies (or nil).
func FuzzEncodeDecideResponse(f *testing.F) {
	word := func(fs ...float64) []byte {
		var b []byte
		for _, v := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(word(1.5e9, 2e9, 2.5e9), uint8(0), 1, 0, 120.0, "drl", "guarded")
	f.Add(word(0, math.Copysign(0, -1), 1e-6, 1e-7, 1e21, 1e20), uint8(3), 4, 99, 1e21, "heuristic", "maxfreq")
	f.Add(word(5e-324, math.MaxFloat64, -1.5e-9), uint8(2), -1, -7, -1e-7, "<&>", "\u2028\"")
	f.Add(word(math.NaN(), 1), uint8(0x81), 1, 0, 0.0, "drl", "guarded")
	f.Add([]byte{1}, uint8(1), 0, 0, 0.0, "\xff\x00", "\u2029")
	f.Fuzz(func(t *testing.T, words []byte, plans uint8, count, iter int, clock float64, layer, mode string) {
		r := &DecideResponse{Count: count, Layer: layer, Mode: mode, Iter: iter, Clock: clock}
		if len(words)%8 != 1 {
			r.Freqs = make([]float64, 0, len(words)/8)
		}
		for i := 0; i+8 <= len(words); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(words[i:]))
			if !isFinite(v) && plans&0x80 == 0 {
				v = 0
			}
			r.Freqs = append(r.Freqs, v)
		}
		if !isFinite(r.Clock) && plans&0x80 == 0 {
			r.Clock = 0
		}
		for k := 0; k < int(plans&3); k++ {
			var p []float64
			if k < len(r.Freqs) {
				p = r.Freqs[k:]
			}
			r.Plans = append(r.Plans, p)
		}
		checkEncode(t, r)
	})
}
