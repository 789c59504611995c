#include "spans.h"

#include <cstdio>

namespace servebench {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kRequestPropose:
      return "request.propose";
    case SpanName::kRequestObserve:
      return "request.observe";
    case SpanName::kEncode:
      return "net.client.encode";
    case SpanName::kSend:
      return "net.client.send";
    case SpanName::kRecv:
      return "net.client.recv";
    case SpanName::kDecode:
      return "net.client.decode";
    case SpanName::kSparksimExecute:
      return "sparksim.execute";
    case SpanName::kWarmupStart:
      return "core.tuning_service.on_query_start";
    case SpanName::kWarmupEnd:
      return "core.tuning_service.on_query_end";
    case SpanName::kRecover:
      return "core.checkpoint.recover";
    case SpanName::kCheckpoint:
      return "core.checkpoint.checkpoint";
    case SpanName::kShutdown:
      return "shutdown";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

bool WriteSpansCsv(const std::string& path,
                   const std::vector<const SpanLog*>& logs,
                   int64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,request,name,start_ns,end_ns\n");
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      std::fprintf(out, "%llu,%llu,%llu,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request),
                   SpanNameText(span.name),
                   static_cast<long long>(span.start_ns - origin_ns),
                   static_cast<long long>(span.end_ns - origin_ns));
    }
  }
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace servebench
