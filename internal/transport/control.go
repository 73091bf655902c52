// Control frames: OpHello, OpNodeStat, OpUsage and OpMetrics share one
// payload codec,
//
//	control := version(1) json
//
// where version is ControlVersion and json is the encoding/json form of
// the op's body. A request that carries no body (the handshake, the
// usage and metrics queries) is the version byte alone. Block ops keep
// their binary framing; control frames are small and infrequent, so
// they trade bytes for one decoder with one set of rules.
package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// ControlVersion is the control-frame codec version this build speaks.
// A receiver refuses every other value with an error, so an
// incompatible future layout fails closed instead of half-parsing.
const ControlVersion byte = 2

// maxControlValues bounds the comma-separated values in one control
// body. A heartbeat at MaxBatchEntries tenants carries about 12k; a
// metrics snapshot one per counter and gauge (two gauges per tenant)
// and 66 per histogram.
const maxControlValues = 1 << 16

// controlBody is a control frame's JSON body. validate enforces the
// limits the receiving side holds the body to; the encoder runs it too,
// so a peer never sends what the other end would refuse.
type controlBody interface {
	validate() error
}

// encodeControl encodes v as a control payload. A nil v encodes the
// version byte alone.
func encodeControl(v controlBody) ([]byte, error) {
	if v == nil {
		return []byte{ControlVersion}, nil
	}
	if err := v.validate(); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("transport: encode control body: %w", err)
	}
	if err := checkValueCount(raw); err != nil {
		return nil, err
	}
	return append([]byte{ControlVersion}, raw...), nil
}

// decodeControl decodes a control payload into v, which must be a
// pointer (or nil, for a payload that must be the version byte alone).
// It fails closed: a wrong version, too many values, malformed JSON, an
// unknown field, bytes after the JSON document and a body that fails
// its own validate are all errors. The framing layer already caps the
// payload at MaxPayloadLen.
func decodeControl(payload []byte, v controlBody) error {
	if len(payload) == 0 {
		return errors.New("transport: empty control payload")
	}
	if payload[0] != ControlVersion {
		return fmt.Errorf("transport: unsupported control version %d", payload[0])
	}
	body := payload[1:]
	if v == nil {
		if len(body) != 0 {
			return fmt.Errorf("transport: %d unexpected bytes after control version", len(body))
		}
		return nil
	}
	if err := checkValueCount(body); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("transport: decode control body: %w", err)
	}
	if n := dec.InputOffset(); n != int64(len(body)) {
		return fmt.Errorf("transport: %d trailing bytes after control body", int64(len(body))-n)
	}
	return v.validate()
}

// queryControl sends a bodiless control request for op and key on c
// and decodes the reply body into reply.
func queryControl(ctx context.Context, c *pipeConn, op byte, key string, reply controlBody) error {
	status, resp, err := c.roundTrip(ctx, op, key, []byte{ControlVersion})
	if err != nil {
		return err
	}
	defer putBuf(resp)
	if status != StatusOK {
		return remoteError(status, resp)
	}
	return decodeControl(resp, reply)
}

// checkValueCount refuses, without allocating, a body of more than
// maxControlValues comma-separated values. It runs before the decoder
// because a few bytes of JSON ("{}," or "0,") decode to a slice or map
// entry many times that size: without it a 64 MiB heartbeat of empty
// tenant entries would cost the manager gigabytes before validate could
// count them. Strings and numbers decode to at most their own length,
// and a value nests at most four containers deep in any body type, so
// what is left stays within a small multiple of the frame.
func checkValueCount(body []byte) error {
	n := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			for i++; i < len(body) && body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
		case ',':
			if n++; n >= maxControlValues {
				return fmt.Errorf("transport: control body holds more than %d values", maxControlValues)
			}
		}
	}
	return nil
}
