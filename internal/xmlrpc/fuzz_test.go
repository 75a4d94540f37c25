package xmlrpc

import (
	"testing"
	"time"
)

// FuzzDecodeCall feeds the same bytes to both request and response
// decoding, the two parsers that read XML-RPC bodies off the network.
// Hostile or torn bodies must yield errors, never panics. The seeds are
// well-formed calls, responses and faults as this package encodes them.
func FuzzDecodeCall(f *testing.F) {
	at := time.Date(2014, 5, 19, 12, 30, 0, 0, time.UTC)
	nested := map[string]any{
		"run":    7,
		"ok":     true,
		"load":   0.25,
		"blob":   []byte{0, 1, 2, 0xff},
		"at":     at,
		"events": []any{"sd_start", 3, map[string]any{"node": "n1"}},
	}
	calls := [][]any{
		{"exp.prepare_run"},
		{"exp.prepare_run", 3, "casestudy"},
		{"host.execute", "A", nested},
		{"host.set_master", "http://127.0.0.1:18801/", []any{}, map[string]any{}},
		{"esc<&>\"'", "a<b>&c", -2147483648, false, 1e-300},
	}
	for _, c := range calls {
		data, err := EncodeCall(c[0].(string), c[1:]...)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, v := range []any{"ok", 42, nested, []any{at, []byte("x")}} {
		data, err := EncodeResponse(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(EncodeFault(&Fault{Code: 503, String: "node quarantined"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = DecodeCall(data)
		_, _ = DecodeResponse(data)
	})
}
