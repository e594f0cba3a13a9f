package server

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
