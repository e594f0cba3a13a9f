package server

import "net"

// SetRearmFailpoint installs fn as the readers' re-arm failpoint; nil
// removes it. Set it before the server accepts a connection.
func SetRearmFailpoint(fn func()) { rearmFailpoint = fn }

// DrainKicked reports whether Shutdown has set the drain flag and kicked
// every reader's deadline, which it does in one hold of s.mu.
func (s *Server) DrainKicked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining.Load()
}

// SetListener makes Serve accept from ln instead of a listener Listen
// binds, so tests can wrap the server's side of every connection.
func (s *Server) SetListener(ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ln = ln
}
