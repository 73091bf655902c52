package transport

import (
	"bytes"
	"strings"
	"testing"

	"aecodes/internal/tenant"
)

// FuzzReadRequest feeds arbitrary byte streams to the server-side frame
// parser: it must never panic nor allocate beyond the declared limits,
// whatever a malicious client sends.
func FuzzReadRequest(f *testing.F) {
	// Well-formed seed frames.
	var good bytes.Buffer
	if err := writeRequest(&good, OpPut, "key", []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	var getFrame bytes.Buffer
	if err := writeRequest(&getFrame, OpGet, "k", nil); err != nil {
		f.Fatal(err)
	}
	f.Add(getFrame.Bytes())
	// Hostile seeds: oversized key length, oversized payload length,
	// truncated frames.
	f.Add([]byte{OpGet, 0xFF, 0xFF})
	f.Add([]byte{OpPut, 0x00, 0x01, 'k', 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{OpDel})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, frame []byte) {
		op, key, payload, err := readRequest(bytes.NewReader(frame))
		if err != nil {
			return // malformed input must just error
		}
		if len(key) > MaxKeyLen {
			t.Fatalf("accepted oversized key (%d bytes)", len(key))
		}
		if len(payload) > MaxPayloadLen {
			t.Fatalf("accepted oversized payload (%d bytes)", len(payload))
		}
		// A successfully parsed frame must re-encode to a parseable frame
		// with identical content.
		var re bytes.Buffer
		if err := writeRequest(&re, op, key, payload); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		op2, key2, payload2, err := readRequest(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if op2 != op || key2 != key || !bytes.Equal(payload2, payload) {
			t.Fatal("frame round trip not stable")
		}
	})
}

// FuzzHelloFrame drives the tenant handshake path with arbitrary tenant
// IDs and payloads, framed and parsed exactly as the server would see
// them: the frame parser, the version gate and the tenant ID validator
// must never panic, and nothing invalid may slip through — a hostile
// handshake must not be able to name a tenant that escapes its
// namespace prefix.
func FuzzHelloFrame(f *testing.F) {
	// Well-formed handshakes.
	f.Add([]byte("alice"), []byte{ControlVersion})
	f.Add([]byte(""), []byte{ControlVersion})
	f.Add([]byte("user-42.backup_set"), []byte{ControlVersion})
	// Hostile seeds: wrong version, empty payload, trailing bytes,
	// namespace-escape attempts, oversized IDs.
	f.Add([]byte("alice"), []byte{ControlVersion + 1})
	f.Add([]byte("alice"), []byte{})
	f.Add([]byte("alice"), []byte{ControlVersion, 0xFF})
	f.Add([]byte("alice/../bob"), []byte{ControlVersion})
	f.Add([]byte("!tenant/bob"), []byte{ControlVersion})
	f.Add(bytes.Repeat([]byte("a"), tenant.MaxIDLen+1), []byte{ControlVersion})

	f.Fuzz(func(t *testing.T, id, payload []byte) {
		var frame bytes.Buffer
		if err := writeRequest(&frame, OpHello, string(id), payload); err != nil {
			return // unframeable input (key too long) never reaches a server
		}
		op, key, pl, err := readRequest(bytes.NewReader(frame.Bytes()))
		if err != nil {
			t.Fatalf("self-framed handshake failed to parse: %v", err)
		}
		if op != OpHello || key != string(id) || !bytes.Equal(pl, payload) {
			t.Fatal("handshake frame round trip not stable")
		}
		if decodeControl(pl, nil) == nil {
			if re, err := encodeControl(nil); err != nil || !bytes.Equal(re, pl) {
				t.Fatalf("handshake accepted payload %x", pl)
			}
		}
		iderr := tenant.ValidateID(key)
		if iderr != nil {
			return // refused before any resolver sees it
		}
		// An accepted ID must be namespace-safe: its prefixed form maps
		// back to exactly this tenant.
		if key == "" {
			return
		}
		if strings.ContainsAny(key, "/!") || len(key) > tenant.MaxIDLen {
			t.Fatalf("ValidateID accepted a namespace-unsafe id %q", key)
		}
	})
}

// FuzzReadResponse does the same for the client-side parser.
func FuzzReadResponse(f *testing.F) {
	var good bytes.Buffer
	if err := writeResponse(&good, StatusOK, []byte("block")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{StatusError, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{StatusNotFound})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, frame []byte) {
		status, payload, err := readResponse(bytes.NewReader(frame))
		if err != nil {
			return
		}
		if len(payload) > MaxPayloadLen {
			t.Fatalf("accepted oversized payload (%d bytes)", len(payload))
		}
		var re bytes.Buffer
		if err := writeResponse(&re, status, payload); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		status2, payload2, err := readResponse(bytes.NewReader(re.Bytes()))
		if err != nil || status2 != status || !bytes.Equal(payload2, payload) {
			t.Fatal("response round trip not stable")
		}
	})
}
