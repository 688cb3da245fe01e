package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Peer protocol paths, mounted by Handler and dialed by HTTPTransport. The
// version segment lets a future incompatible protocol coexist on one port.
const (
	lookupPath     = "/fleet/v1/lookup"
	propagatePath  = "/fleet/v1/propagate"
	membershipPath = "/fleet/v1/membership"
	handoffPath    = "/fleet/v1/handoff"
)

// maxWireBytes bounds every peer-protocol body, requests read by Handler
// and replies read by HTTPTransport alike. The largest legitimate message
// is a warm handoff of the whole recorded warm set: the default
// Config.SnapshotLimit of 1024 request specs at up to ~2 KiB of JSON each
// (a 16-relation query's SQL plus its selectivities, memory distribution
// and chain) is about 2 MiB; the bound leaves 4× headroom.
const maxWireBytes = 8 << 20

// decodeBody decodes one bounded JSON peer body into out. Exceeding the
// bound returns a *http.MaxBytesError.
func decodeBody(w http.ResponseWriter, body io.ReadCloser, out any) error {
	return json.NewDecoder(http.MaxBytesReader(w, body, maxWireBytes)).Decode(out)
}

// readPeerBody decodes a peer request body for Handler, answering a body
// over maxWireBytes with 413 and any other decode failure with 400. It
// reports whether out was filled.
func readPeerBody(w http.ResponseWriter, r *http.Request, out any) bool {
	err := decodeBody(w, r.Body, out)
	if err == nil {
		return true
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return false
}

// propagateBody is the propagate request/reply JSON body.
type propagateBody struct {
	Generation uint64 `json:"generation"`
}

// HTTPTransport dials peers over HTTP: a peer name is a host:port and the
// protocol is POST + JSON on the /fleet/v1/* paths that Handler mounts.
type HTTPTransport struct {
	// Client, when nil, uses a private client with sane timeouts.
	Client *http.Client
	// Scheme defaults to "http".
	Scheme string
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (t *HTTPTransport) url(peer, path string) string {
	scheme := t.Scheme
	if scheme == "" {
		scheme = "http"
	}
	return fmt.Sprintf("%s://%s%s", scheme, peer, path)
}

func (t *HTTPTransport) post(ctx context.Context, url string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("peer returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := decodeBody(nil, resp.Body, out); err != nil {
		return fmt.Errorf("peer reply: %w", err)
	}
	return nil
}

// Lookup implements Transport.
func (t *HTTPTransport) Lookup(ctx context.Context, peer string, req *LookupRequest) (*LookupReply, error) {
	var rep LookupReply
	if err := t.post(ctx, t.url(peer, lookupPath), req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Propagate implements Transport.
func (t *HTTPTransport) Propagate(ctx context.Context, peer string, gen uint64) (uint64, error) {
	var rep propagateBody
	if err := t.post(ctx, t.url(peer, propagatePath), propagateBody{Generation: gen}, &rep); err != nil {
		return 0, err
	}
	return rep.Generation, nil
}

// Membership implements Transport.
func (t *HTTPTransport) Membership(ctx context.Context, peer string, msg *MembershipMsg) (*MembershipMsg, error) {
	var rep MembershipMsg
	if err := t.post(ctx, t.url(peer, membershipPath), msg, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Handoff implements Transport.
func (t *HTTPTransport) Handoff(ctx context.Context, peer string, req *HandoffRequest) (int, error) {
	var rep HandoffReply
	if err := t.post(ctx, t.url(peer, handoffPath), req, &rep); err != nil {
		return 0, err
	}
	return rep.Accepted, nil
}

// Handler returns the peer-facing HTTP handler for the node: the server
// side of HTTPTransport. Mount it on the same mux as the client API.
func Handler(n *Node) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(lookupPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req LookupRequest
		if !readPeerBody(w, r, &req) {
			return
		}
		rep, err := n.HandleLookup(r.Context(), &req)
		if err != nil {
			// The requester treats any lookup failure as a peer miss and
			// falls back locally; the status code is diagnostic only.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc(propagatePath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var body propagateBody
		if !readPeerBody(w, r, &body) {
			return
		}
		writeJSON(w, propagateBody{Generation: n.HandlePropagate(body.Generation)})
	})
	mux.HandleFunc(membershipPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var msg MembershipMsg
		if !readPeerBody(w, r, &msg) {
			return
		}
		writeJSON(w, n.HandleMembership(&msg))
	})
	mux.HandleFunc(handoffPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req HandoffRequest
		if !readPeerBody(w, r, &req) {
			return
		}
		writeJSON(w, HandoffReply{Accepted: n.HandleHandoff(r.Context(), &req)})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
