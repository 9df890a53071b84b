#include "audit/mutex.h"
#include "baseline/state_server.h"

#include "common/serde.h"
#include "msp/session.h"

namespace msplog {

namespace {
constexpr char kGet[] = "__ss_get";
constexpr char kPut[] = "__ss_put";
}  // namespace

StateServerNode::StateServerNode(SimEnvironment* env, SimNetwork* network,
                                 std::string name)
    : env_(env), network_(network), name_(std::move(name)) {}

StateServerNode::~StateServerNode() { Crash(); }

Status StateServerNode::Start() {
  if (running_) return Status::InvalidArgument("already running");
  mailbox_ = network_->Register(name_);
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void StateServerNode::Crash() {
  if (!running_) return;
  running_ = false;
  network_->Unregister(name_);
  if (thread_.joinable()) thread_.join();
  audit::LockGuard lk(mu_);
  store_.clear();  // in-memory only: a crash loses everything
}

size_t StateServerNode::StoredSessions() const {
  audit::LockGuard lk(mu_);
  return store_.size();
}

void StateServerNode::Loop() {
  Packet p;
  while (mailbox_->Pop(&p)) {
    Message m;
    if (!Message::Decode(p.wire, &m).ok()) continue;
    if (m.type != MessageType::kRequest) continue;
    Message r = Message::Reply(name_, m.session_id, m.seqno, ReplyCode::kOk);
    if (m.method == kGet) {
      audit::LockGuard lk(mu_);
      auto it = store_.find(m.payload);
      if (it == store_.end()) {
        r.payload.push_back('\0');
      } else {
        r.payload.push_back('\1');
        r.payload.append(it->second);
      }
    } else if (m.method == kPut) {
      BinaryReader br(m.payload);
      Bytes key, blob;
      if (br.GetBytes(&key).ok() && br.GetBytes(&blob).ok()) {
        audit::LockGuard lk(mu_);
        store_[key] = std::move(blob);
      } else {
        r.reply_code = ReplyCode::kAppError;
        r.payload = "bad put payload";
      }
    } else {
      r.reply_code = ReplyCode::kAppError;
      r.payload = "unknown method " + m.method;
    }
    network_->Send(name_, p.from, r.Encode());
  }
}

Status StateServerSessionStore::Call(const Session* s, const char* method,
                                     Bytes payload, Message* reply) {
  return round_trip_(
      server_,
      Message::Request(msp_id_, msp_id_ + "/" + s->id + "@ss",
                       next_rpc_seqno_.fetch_add(1, std::memory_order_relaxed),
                       method, std::move(payload)),
      reply);
}

Status StateServerSessionStore::Load(Session* s, bool* found) {
  *found = false;
  Message rep;
  MSPLOG_RETURN_IF_ERROR(Call(s, kGet, s->id, &rep));
  if (rep.payload.empty()) return Status::Corruption("bad state reply");
  if (rep.payload[0] == 1) {
    MSPLOG_RETURN_IF_ERROR(
        s->DecodeCheckpoint(ByteView(rep.payload).substr(1)));
    *found = true;
  }
  return Status::OK();
}

Status StateServerSessionStore::Save(Session* s) {
  BinaryWriter w;
  w.PutBytes(s->id);
  w.PutBytes(s->EncodeCheckpoint());
  Message rep;
  return Call(s, kPut, w.Take(), &rep);
}

}  // namespace msplog
