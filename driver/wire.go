package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// The driver speaks the wire protocol from its JSON shapes alone — it
// deliberately does not share Go types with internal/server, the way an
// out-of-process client could not. The conformance suite pins the two
// sides together.

// protocolVersion is the wire protocol this driver speaks; every
// endpoint lives under "/" + protocolVersion + "/".
const protocolVersion = "v1"

type wireColumn struct {
	Name string `json:"name"`
	// Kind is "string", "time", or "int".
	Kind string `json:"kind"`
	// Temporal is "start" or "end" on the two columns the schema
	// designates as the tuple lifespan endpoints; empty otherwise.
	Temporal string `json:"temporal,omitempty"`
}

type sessionOpenRequest struct {
	Tenant string `json:"tenant,omitempty"`
}

type sessionOpenResponse struct {
	Protocol      string `json:"protocol"`
	Session       string `json:"session"`
	Tenant        string `json:"tenant"`
	IdleTimeoutMS int64  `json:"idle_timeout_ms"`
}

type sessionCloseRequest struct {
	Session string `json:"session"`
}

type queryRequest struct {
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Quel    string `json:"quel"`
	Params  []any  `json:"params,omitempty"`
}

// queryResponse is a query or execute answer, read from the binary
// result frame (frame holds its encoded rows, or the pairs over cls) or
// from JSON (Rows).
type queryResponse struct {
	Columns       []wireColumn `json:"columns"`
	Rows          [][]any      `json:"rows"`
	Into          string       `json:"into,omitempty"`
	Contradiction bool         `json:"contradiction,omitempty"`
	Notes         []string     `json:"notes,omitempty"`
	ElapsedNS     int64        `json:"elapsed_ns"`

	frame []byte   // encoded rows (or pairs) of a frame answer
	cls   *classes // the class tables of a classes-layout frame
	n     int      // row count
}

// rows returns the answer as a driver result set.
func (q *queryResponse) rows() *Rows {
	return &Rows{cols: q.Columns, json: q.Rows, frame: q.frame, cls: q.cls, n: q.n}
}

type prepareRequest struct {
	Session string `json:"session"`
	Quel    string `json:"quel"`
}

type prepareResponse struct {
	Stmt      string       `json:"stmt"`
	NumParams int          `json:"num_params"`
	Columns   []wireColumn `json:"columns"`
}

type executeRequest struct {
	Session string `json:"session"`
	Stmt    string `json:"stmt"`
	Params  []any  `json:"params,omitempty"`
}

type closeStmtRequest struct {
	Session string `json:"session"`
	Stmt    string `json:"stmt"`
}

type appendRequest struct {
	Session  string  `json:"session,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
	Relation string  `json:"relation"`
	Rows     [][]any `json:"rows"`
	Slack    int64   `json:"slack,omitempty"`
	Flush    bool    `json:"flush,omitempty"`
	IdemKey  string  `json:"idem_key,omitempty"`
}

type subscribeRequest struct {
	Session  string `json:"session"`
	Quel     string `json:"quel,omitempty"`
	PollMS   int64  `json:"poll_ms,omitempty"`
	Resume   string `json:"resume,omitempty"`
	AfterSeq int64  `json:"after_seq,omitempty"`
}

type subscribeMeta struct {
	Name      string       `json:"name"`
	Mode      string       `json:"mode"`
	Explain   string       `json:"explain,omitempty"`
	Columns   []wireColumn `json:"columns"`
	Resume    string       `json:"resume,omitempty"`
	ReplayCap int          `json:"replay_cap,omitempty"`
}

type subscribeDeltas struct {
	Seq  int64   `json:"seq"`
	Rows [][]any `json:"rows"`
}

type errorEnvelope struct {
	Error struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	} `json:"error"`
}

// post runs one protocol request under the retry policy: marshal, POST,
// and either decode the response into out or map the error envelope to
// a typed *Error. Every endpoint routed through post is safe to repeat
// (appends pass through only when keyed); use postOnce otherwise.
// Chronons travel as JSON numbers up to interval.Forever (2^63-2), so
// responses are decoded with json.Number — float64 would corrupt them.
func (c *Connector) post(ctx context.Context, endpoint string, in, out any) error {
	return c.withRetry(ctx, endpoint, func() error {
		return c.postOnce(ctx, endpoint, in, out)
	})
}

// postOnce is one attempt with no retry — the path for requests whose
// repetition is not provably safe (unkeyed appends).
func (c *Connector) postOnce(ctx context.Context, endpoint string, in, out any) error {
	resp, err := c.roundTrip(ctx, endpoint, in, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("tdb: decoding %s response: %w", endpoint, err)
	}
	return nil
}

// postQuery runs a query or execute request under the retry policy,
// asking for the binary result frame.
func (c *Connector) postQuery(ctx context.Context, endpoint string, in any) (*queryResponse, error) {
	var out *queryResponse
	err := c.withRetry(ctx, endpoint, func() error {
		resp, err := c.roundTrip(ctx, endpoint, in, frameContentType)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if err := checkStatus(resp); err != nil {
			return err
		}
		if out, err = readAnswer(resp); err != nil {
			return fmt.Errorf("tdb: decoding %s response: %w", endpoint, err)
		}
		return nil
	})
	return out, err
}

// roundTrip POSTs one request; a non-empty accept is sent as the Accept
// header.
func (c *Connector) roundTrip(ctx context.Context, endpoint string, in any, accept string) (*http.Response, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("tdb: encoding %s request: %w", endpoint, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/"+protocolVersion+"/"+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("tdb: %s: %w", endpoint, err)
	}
	return resp, nil
}

// checkStatus maps a non-2xx response to a typed *Error. The body is
// consumed only on error paths.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env errorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		return &Error{Code: env.Error.Code, Message: env.Error.Message, RetryAfterMS: env.Error.RetryAfterMS}
	}
	return fmt.Errorf("tdb: server returned %s: %.200s", resp.Status, raw)
}
